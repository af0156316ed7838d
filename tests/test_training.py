"""Training loop: schedule arithmetic, determinism, degenerate corpora,
resume bookkeeping, and the metric log format."""

import logging

import numpy as np
import pytest

from riskhorizon.envs import ChainWorld, ChainWorldSpec, generate_episodes
from riskhorizon.episodes import Episode, Terminal
from riskhorizon.network import EstimatorConfig, LossWeights, save_checkpoint, load_checkpoint
from riskhorizon.returns import HorizonConfig
from riskhorizon.training import (
    DegenerateCorpusError,
    TrainConfig,
    _split,
    lr_schedule,
    train,
    write_metric_log,
)

SPEC = ChainWorldSpec(
    n_states=3,
    hazard=(0.05, 0.15, 0.3),
    transition=((0.5, 0.5, 0.0), (0.25, 0.5, 0.25), (0.0, 0.5, 0.5)),
    start_distribution=(0.6, 0.3, 0.1),
)

HORIZON = HorizonConfig(delta_t=0.1, n_heads=3, lam=0.8, trunc_n=2)
LOSS = LossWeights(c_interval=1.0, c_chain=1.0, p_collision=0.25, p_noncollision=0.025)


def corpus(n=30, seed=4, max_steps=20):
    eps, _ = generate_episodes(ChainWorld(SPEC, max_steps=max_steps), n, seed)
    return eps


def config(epochs, samples=120, **kw):
    return TrainConfig(
        horizon=HORIZON,
        loss=LOSS,
        epochs=epochs,
        samples_per_epoch=samples,
        batch_size=16,
        lr_start=kw.pop("lr_start", 3e-3),
        lr_end=kw.pop("lr_end", 3e-4),
        master_seed=kw.pop("master_seed", 0),
        **kw,
    )


def estimator_cfg():
    return EstimatorConfig(
        input_dim=3, n_heads=3, backbone_layers=(8,), head_layers=(4, 1), init_seed=5
    )


# --- lr schedule ------------------------------------------------------------


def test_lr_schedule_endpoints():
    cfg = config(50, lr_start=1e-5, lr_end=1e-6)
    assert lr_schedule(0, cfg) == pytest.approx(1e-5)
    assert lr_schedule(49, cfg) == pytest.approx(1e-6)


def test_lr_schedule_geometric_midpoint():
    cfg = config(50, lr_start=1e-5, lr_end=1e-6)
    got = lr_schedule(24, cfg)
    assert got == pytest.approx(1e-5 * 10 ** (-24 / 49), rel=1e-12)
    assert got == pytest.approx(3.24e-6, abs=0.01e-6)


def test_lr_schedule_single_epoch():
    cfg = config(1, lr_start=2e-3, lr_end=1e-3)
    assert lr_schedule(0, cfg) == pytest.approx(2e-3)


def test_lr_schedule_is_monotone():
    cfg = config(20, lr_start=1e-2, lr_end=1e-4)
    values = [lr_schedule(e, cfg) for e in range(20)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_train_config_validation():
    with pytest.raises(ValueError):
        config(5, lr_start=1e-4, lr_end=1e-3)  # end above start
    with pytest.raises(ValueError):
        config(5, eval_fraction=0.0)
    with pytest.raises(ValueError):
        config(-1)
    with pytest.raises(ValueError):
        config(5, samples=0)


# --- split ------------------------------------------------------------------


def test_split_disjoint_and_covering():
    rng = np.random.default_rng(0)
    train_ids, held = _split(10, 0.2, rng)
    assert sorted(train_ids + held) == list(range(10))
    assert len(held) == 2


def test_split_always_leaves_both_sides():
    rng = np.random.default_rng(1)
    train_ids, held = _split(2, 0.01, rng)
    assert len(held) == 1 and len(train_ids) == 1
    train_ids, held = _split(2, 0.99, rng)
    assert len(held) == 1 and len(train_ids) == 1


# --- train ------------------------------------------------------------------


def test_zero_epochs_returns_untouched_estimator():
    result = train(corpus(), config(0), estimator_cfg=estimator_cfg())
    from riskhorizon.network import MultiHeadEstimator

    fresh = MultiHeadEstimator(estimator_cfg())
    assert np.array_equal(result.state.estimator.get_flat(), fresh.get_flat())
    assert result.metrics == []
    assert result.state.epochs_completed == 0
    assert result.state.sampler is None


def test_train_is_deterministic():
    eps = corpus()
    a = train(eps, config(2), estimator_cfg=estimator_cfg())
    b = train(eps, config(2), estimator_cfg=estimator_cfg())
    assert np.array_equal(a.state.estimator.get_flat(), b.state.estimator.get_flat())
    assert a.metrics == b.metrics
    assert a.held_out == b.held_out


def test_train_seed_changes_everything():
    eps = corpus()
    a = train(eps, config(1), estimator_cfg=estimator_cfg())
    b = train(eps, config(1, master_seed=1), estimator_cfg=estimator_cfg())
    assert not np.array_equal(a.state.estimator.get_flat(), b.state.estimator.get_flat())


def test_metric_log_shape_and_finiteness():
    result = train(corpus(), config(3), estimator_cfg=estimator_cfg())
    assert len(result.metrics) == 3
    for k, entry in enumerate(result.metrics):
        assert entry.epoch == k
        assert np.isfinite(entry.loss)
        assert np.isfinite(entry.pes_mean)
        assert len(entry.acc_per_head) == 3
        assert entry.loss == pytest.approx(
            entry.loss_mse + entry.loss_interval + entry.loss_chain, rel=1e-9
        )


def test_degenerate_corpora_rejected():
    eps = corpus()
    collisions = [ep for ep in eps if ep.ends_in_collision]
    quiet = [ep for ep in eps if not ep.ends_in_collision]
    with pytest.raises(DegenerateCorpusError):
        train(collisions, config(1))
    with pytest.raises(DegenerateCorpusError):
        train(quiet, config(1))
    with pytest.raises(DegenerateCorpusError):
        train(eps[:1], config(1))
    mixed_dims = eps[:6] + [
        Episode(observations=np.zeros((4, 7)), terminal=Terminal.COLLISION, seed=0)
    ]
    with pytest.raises(DegenerateCorpusError):
        train(mixed_dims, config(1))


def test_estimator_config_consistency_checked():
    bad_dim = EstimatorConfig(input_dim=9, n_heads=3, backbone_layers=(8,), head_layers=(4, 1))
    with pytest.raises(ValueError):
        train(corpus(), config(1), estimator_cfg=bad_dim)
    bad_heads = EstimatorConfig(input_dim=3, n_heads=5, backbone_layers=(8,), head_layers=(4, 1))
    with pytest.raises(ValueError):
        train(corpus(), config(1), estimator_cfg=bad_heads)


def test_train_needs_an_estimator_config_or_a_checkpoint():
    with pytest.raises(ValueError, match="estimator_cfg or a checkpoint"):
        train(corpus(), config(1))


def test_resume_continues_epoch_counter(tmp_path):
    eps = corpus()
    first = train(eps, config(2), estimator_cfg=estimator_cfg())
    assert first.state.epochs_completed == 2
    ckpt_path = tmp_path / "ckpt.json"
    save_checkpoint(ckpt_path, first.state)
    resumed = train(eps, config(5), resume=load_checkpoint(ckpt_path))
    assert [m.epoch for m in resumed.metrics] == [0, 1, 2, 3, 4]
    assert resumed.metrics[:2] == first.metrics
    assert resumed.state.epochs_completed == 5
    # The learning rate follows the global schedule, not a restarted one.
    cfg5 = config(5)
    for m in resumed.metrics[2:]:
        assert m.lr == pytest.approx(lr_schedule(m.epoch, cfg5))


def test_resume_beyond_config_epochs_is_noop(tmp_path):
    eps = corpus()
    first = train(eps, config(2), estimator_cfg=estimator_cfg())
    ckpt_path = tmp_path / "ckpt.json"
    save_checkpoint(ckpt_path, first.state)
    resumed = train(eps, config(2), resume=load_checkpoint(ckpt_path))
    assert resumed.metrics == first.metrics
    assert resumed.state.epochs_completed == 2
    assert np.array_equal(resumed.state.estimator.get_flat(), first.state.estimator.get_flat())


def test_a_resumed_run_equals_an_uninterrupted_one(tmp_path):
    eps = corpus()
    whole = train(eps, config(4), estimator_cfg=estimator_cfg()).state

    def save_epoch_two(state):
        if state.epochs_completed == 2:
            save_checkpoint(tmp_path / "two.json", state)

    train(eps, config(4), estimator_cfg=estimator_cfg(), on_epoch_end=save_epoch_two)
    resumed = train(eps, config(4), resume=load_checkpoint(tmp_path / "two.json")).state
    assert resumed.estimator.get_flat().tobytes() == whole.estimator.get_flat().tobytes()
    assert resumed.adam.m.flat.tobytes() == whole.adam.m.flat.tobytes()
    assert resumed.adam.v.flat.tobytes() == whole.adam.v.flat.tobytes()
    assert (resumed.adam.step, resumed.sampler) == (whole.adam.step, whole.sampler)
    assert resumed.metrics == whole.metrics


def test_resuming_without_sampler_state_warns_and_restarts_the_sampler(tmp_path, caplog):
    eps = corpus()
    first = train(eps, config(2), estimator_cfg=estimator_cfg()).state
    first.sampler = None
    with caplog.at_level(logging.WARNING, logger="riskhorizon"):
        resumed = train(eps, config(3), resume=first)
    assert "replay restarts from the configured seed" in caplog.text
    assert resumed.state.epochs_completed == 3


def test_training_reduces_loss_on_small_chain():
    eps = corpus(n=60, seed=11)
    result = train(eps, config(8, samples=400), estimator_cfg=estimator_cfg())
    first, last = result.metrics[0], result.metrics[-1]
    assert last.loss < first.loss


def test_write_metric_log_format(tmp_path):
    result = train(corpus(), config(2), estimator_cfg=estimator_cfg())
    path = tmp_path / "metrics.tsv"
    write_metric_log(path, result.metrics, HORIZON.n_heads)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("#") and "train-metrics" in lines[0]
    cols = lines[1].split("\t")
    assert cols[:6] == ["epoch", "lr", "loss", "loss_mse", "loss_interval", "loss_chain"]
    assert cols[6:] == ["acc_head1", "acc_head2", "acc_head3", "pes_mean"]
    assert len(lines) == 2 + 2
    row = lines[2].split("\t")
    assert int(row[0]) == 0
    assert float(row[2]) == pytest.approx(result.metrics[0].loss, rel=1e-10)
