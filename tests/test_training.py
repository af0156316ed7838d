"""Training loop: schedule arithmetic, determinism, degenerate corpora,
resume bookkeeping, the planned epoch against the per-batch loop, and the
metric log format."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from helpers import get_flat
from riskhorizon import evaluation, training
from riskhorizon.envs import (
    ChainWorld,
    CorridorWorld,
    generate_episodes,
)
from riskhorizon.episodes import Episode, Terminal, load_episodes, save_episodes
from riskhorizon.evaluation import evaluate
from riskhorizon.network import (
    AdamState,
    Checkpoint,
    EpochMetrics,
    EstimatorConfig,
    LossWeights,
    MultiHeadEstimator,
    batch_loss_and_grad,
    load_checkpoint,
    optimizer_step,
    save_checkpoint,
)
from riskhorizon.replay import build_index, sample
from riskhorizon.returns import HorizonConfig, corpus_rows, lambda_targets
from riskhorizon.training import (
    DegenerateCorpusError,
    TrainConfig,
    _split,
    lr_schedule,
    train,
    write_metric_log,
)

CHAIN = ChainWorld(
    n_states=3,
    hazard=(0.05, 0.15, 0.3),
    transition=((0.5, 0.5, 0.0), (0.25, 0.5, 0.25), (0.0, 0.5, 0.5)),
    start_distribution=(0.6, 0.3, 0.1),
)

HORIZON = HorizonConfig(delta_t=0.1, n_heads=3, lam=0.8, trunc_n=2)
LOSS = LossWeights(c_interval=1.0, c_chain=1.0, p_collision=0.25, p_noncollision=0.025)


def corpus(n=30, seed=4, max_steps=20):
    eps, _ = generate_episodes(dataclasses.replace(CHAIN, max_steps=max_steps), n, seed)
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
    assert np.array_equal(get_flat(result.state.estimator), get_flat(fresh))
    assert result.metrics == []
    assert result.state.epochs_completed == 0
    assert result.state.sampler is None


def test_train_is_deterministic():
    eps = corpus()
    a = train(eps, config(2), estimator_cfg=estimator_cfg())
    b = train(eps, config(2), estimator_cfg=estimator_cfg())
    assert np.array_equal(get_flat(a.state.estimator), get_flat(b.state.estimator))
    assert a.metrics == b.metrics
    assert a.held_out == b.held_out


def test_train_seed_changes_everything():
    eps = corpus()
    a = train(eps, config(1), estimator_cfg=estimator_cfg())
    b = train(eps, config(1, master_seed=1), estimator_cfg=estimator_cfg())
    assert not np.array_equal(get_flat(a.state.estimator), get_flat(b.state.estimator))


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


def test_one_step_episodes_reject_an_empty_index_or_hold_out_nan_errors():
    # A one-step truncation anchors no target and has no known window; a
    # one-step collision has both. Which of the two is held out depends on
    # the seed, and the seeds below reach both splits.
    eps = [Episode(observations=np.zeros((1, 3)), terminal=Terminal.TIME_LIMIT, seed=0),
           Episode(observations=np.zeros((1, 3)), terminal=Terminal.COLLISION, seed=1)]
    outcomes = set()
    for seed in range(8):
        try:
            result = train(eps, config(1, master_seed=seed), estimator_cfg())
        except DegenerateCorpusError as exc:
            assert "no training row can anchor a target" in str(exc)
            outcomes.add("empty index")
        else:
            assert result.held_out == [0]
            assert np.isnan(result.metrics[0].pes_mean)
            assert np.isnan(result.metrics[0].acc_per_head).all()
            outcomes.add("no held-out window")
    assert outcomes == {"empty index", "no held-out window"}


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
    assert np.array_equal(get_flat(resumed.state.estimator), get_flat(first.state.estimator))


def test_a_resumed_run_equals_an_uninterrupted_one(tmp_path):
    eps = corpus()
    whole = train(eps, config(4), estimator_cfg=estimator_cfg()).state

    def save_epoch_two(state):
        if state.epochs_completed == 2:
            save_checkpoint(tmp_path / "two.json", state)

    train(eps, config(4), estimator_cfg=estimator_cfg(), on_epoch_end=save_epoch_two)
    resumed = train(eps, config(4), resume=load_checkpoint(tmp_path / "two.json")).state
    assert get_flat(resumed.estimator).tobytes() == get_flat(whole.estimator).tobytes()
    assert resumed.adam.m.tobytes() == whole.adam.m.tobytes()
    assert resumed.adam.v.tobytes() == whole.adam.v.tobytes()
    assert (resumed.adam.step, resumed.sampler) == (whole.adam.step, whole.sampler)
    assert resumed.metrics == whole.metrics


def test_resuming_without_sampler_state_is_an_error():
    # Replay restarted from the configured seed would not continue the run.
    eps = corpus()
    first = train(eps, config(2), estimator_cfg=estimator_cfg()).state
    first.sampler = None
    with pytest.raises(ValueError, match="replay sampler state"):
        train(eps, config(3), resume=first)
    assert first.epochs_completed == 2


# --- the planned epoch against the per-batch loop ---------------------------


def reference_train(episodes, cfg, estimator_cfg=None, resume=None):
    """The per-batch epoch loop, which `train`'s planned epochs must match
    bit for bit: each batch is drawn, targeted and gathered just before its
    step. Returns the advanced state."""

    seed_seq = np.random.SeedSequence(cfg.master_seed)
    split_seq, _, sample_seq = seed_seq.spawn(3)
    state = resume
    if state is None:
        estimator = MultiHeadEstimator(estimator_cfg)
        state = Checkpoint(estimator, cfg.horizon, cfg.loss, AdamState.zeros(estimator))
    estimator, adam = state.estimator, state.adam
    train_ids, held_out = _split(len(episodes), cfg.eval_fraction, np.random.default_rng(split_seq))
    train_eps = [episodes[j] for j in train_ids]
    held_eps = [episodes[j] for j in held_out]
    observations = np.concatenate([ep.observations for ep in train_eps])
    last_rows, collided = corpus_rows(train_eps)
    index = build_index(train_eps, cfg.horizon)
    sample_rng = np.random.default_rng(sample_seq)
    if state.sampler is not None:
        sample_rng.bit_generator.state = state.sampler
    for epoch in range(state.epochs_completed, cfg.epochs):
        lr = lr_schedule(epoch, cfg)
        snapshot = estimator.forward(observations)
        np.clip(snapshot, 0.0, 1.0, out=snapshot)
        drawn = 0
        sums = np.zeros(4)
        n_valid_total = 0
        while drawn < cfg.samples_per_epoch:
            size = min(cfg.batch_size, cfg.samples_per_epoch - drawn)
            batch = sample(index, size, sample_rng, cfg.loss.p_collision, cfg.loss.p_noncollision)
            drawn += size
            rows = batch.row
            targets = lambda_targets(snapshot, rows, last_rows[rows], collided[rows], cfg.horizon)
            _, breakdown, grads = batch_loss_and_grad(
                estimator, observations[rows], targets.values, targets.valid,
                batch.collision_related, cfg.loss,
            )
            optimizer_step(estimator, grads.flat, adam, lr)
            sums += np.array(
                [breakdown.total, breakdown.mse, breakdown.interval, breakdown.chain]
            ) * breakdown.n_valid
            n_valid_total += breakdown.n_valid
        del snapshot
        report = evaluate(held_eps, estimator, cfg.horizon)
        state.metrics.append(EpochMetrics(epoch, lr, *(sums / n_valid_total),
                                          tuple(float(a) for a in report.acc), report.pes_mean))
        state.epochs_completed = epoch + 1
        state.sampler = sample_rng.bit_generator.state
    return state


def assert_same_state(got, want):
    assert get_flat(got.estimator).tobytes() == get_flat(want.estimator).tobytes()
    assert got.adam.m.tobytes() == want.adam.m.tobytes()
    assert got.adam.v.tobytes() == want.adam.v.tobytes()
    assert got.adam.step == want.adam.step
    assert got.sampler == want.sampler
    assert metric_bits(got.metrics) == metric_bits(want.metrics)


def metric_bits(metrics):
    """Each entry's floats as hex strings: exact, a NaN and the sign of a zero included."""

    return [(m.epoch, *map(float.hex, (m.lr, m.loss, m.loss_mse, m.loss_interval, m.loss_chain,
                                       *m.acc_per_head, m.pes_mean))) for m in metrics]


def small_corridor():
    world = CorridorWorld(stack_frames=2)
    episodes, _ = generate_episodes(world, 24, master_seed=5)
    horizon = HorizonConfig(delta_t=0.1, n_heads=6, lam=0.8, trunc_n=4)
    cfg = TrainConfig(horizon=horizon, loss=LossWeights(p_collision=0.5, p_noncollision=0.025),
                      epochs=3, samples_per_epoch=150, batch_size=16, lr_start=1e-3,
                      lr_end=1e-4, master_seed=2)
    arch = EstimatorConfig(input_dim=world.obs_dim, n_heads=6, backbone_layers=(16, 16),
                           head_layers=(8, 1), init_seed=2)
    return episodes, cfg, arch


def small_chain():
    # 150 samples in batches of 16: the last batch holds 6.
    return corpus(), config(3, samples=150), estimator_cfg()


# Anchors per plan block: one block for the epoch, blocks of two batches,
# and one batch per block (a block never splits a batch). The snapshot is
# forwarded in groups of whole episodes; with groups of a few rows, episodes,
# drawn rows and repeated draws of one row fall on both sides of group edges.
@pytest.mark.parametrize("plan_rows, group_rows", [
    pytest.param(training.PLAN_ROWS, evaluation.GROUP_ROWS, id=str(training.PLAN_ROWS)),
    pytest.param(40, evaluation.GROUP_ROWS, id="40"),
    pytest.param(5, evaluation.GROUP_ROWS, id="5"),
    pytest.param(40, 7, id="40-groups-of-7"),
])
@pytest.mark.parametrize("world", [small_chain, small_corridor])
def test_a_planned_epoch_steps_the_bits_of_the_per_batch_loop(world, plan_rows, group_rows,
                                                              monkeypatch):
    episodes, cfg, arch = world()
    monkeypatch.setattr(training, "PLAN_ROWS", plan_rows)
    monkeypatch.setattr(evaluation, "GROUP_ROWS", group_rows)
    got = train(episodes, cfg, estimator_cfg=arch).state
    assert_same_state(got, reference_train(episodes, cfg, arch))


@pytest.mark.parametrize("world", [small_chain, small_corridor])
def test_a_resumed_planned_run_steps_the_bits_of_the_per_batch_loop(world, monkeypatch, tmp_path):
    episodes, cfg, arch = world()
    monkeypatch.setattr(training, "PLAN_ROWS", 40)

    def save_epoch_one(state):
        if state.epochs_completed == 1:
            save_checkpoint(tmp_path / "one.json", state)

    train(episodes, cfg, estimator_cfg=arch, on_epoch_end=save_epoch_one)
    got = train(episodes, cfg, resume=load_checkpoint(tmp_path / "one.json")).state
    want = reference_train(episodes, cfg, resume=load_checkpoint(tmp_path / "one.json"))
    assert_same_state(got, want)
    assert_same_state(got, reference_train(episodes, cfg, arch))


def test_training_holds_the_observations_only_where_they_were_loaded(tmp_path):
    # Episodes read back from a file are views into its one matrix. Training
    # forwards them a group at a time and copies only the drawn rows, so its
    # peak stays under the snapshot plus half the training observations; a
    # packed copy of the training rows alone would exceed that.
    world = CorridorWorld(stack_frames=3)
    save_episodes(tmp_path / "episodes.npz", generate_episodes(world, 100, master_seed=5)[0], "x")
    episodes, _ = load_episodes(tmp_path / "episodes.npz")
    _, cfg, arch = small_corridor()
    cfg = dataclasses.replace(cfg, epochs=1)
    arch = dataclasses.replace(arch, input_dim=world.obs_dim)
    tracemalloc.start()
    try:
        held_out = set(train(episodes, cfg, estimator_cfg=arch).held_out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = sum(ep.steps for j, ep in enumerate(episodes) if j not in held_out)
    snapshot_bytes = rows * cfg.horizon.n_heads * 8
    observation_bytes = rows * world.obs_dim * 8
    assert peak < snapshot_bytes + observation_bytes / 2


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
