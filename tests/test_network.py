"""Estimator, composite loss, analytic gradients, Adam, checkpoints."""

import functools
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import get_flat
from riskhorizon.config import load_config
from riskhorizon.network import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdamState,
    Checkpoint,
    CheckpointError,
    EmptyBatchError,
    EpochMetrics,
    EstimatorConfig,
    FlatArrays,
    LossWeights,
    MAX_PARAMS,
    ROW_CHUNK,
    ROW_FLOOR,
    MultiHeadEstimator,
    NonFiniteUpdateError,
    batch_loss_and_grad,
    load_checkpoint,
    optimizer_step,
    param_layout,
    save_checkpoint,
)
from riskhorizon.returns import MAX_HEADS, HorizonConfig

W = LossWeights(c_interval=1.0, c_chain=1.0, p_collision=0.25, p_noncollision=0.025)


def small_estimator(seed=0, input_dim=3, n_heads=4):
    return MultiHeadEstimator(
        EstimatorConfig(
            input_dim=input_dim,
            n_heads=n_heads,
            backbone_layers=(6, 6),
            head_layers=(4, 1),
            init_seed=seed,
        )
    )


# --- forward pass -----------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        EstimatorConfig(input_dim=0, n_heads=2)
    with pytest.raises(ValueError):
        EstimatorConfig(input_dim=3, n_heads=0)
    # A head is one hidden layer and a scalar output: [width, 1].
    for head_layers in [(4, 2), (1,), (0, 1), (16, 8, 1)]:
        with pytest.raises(ValueError, match=r"head_layers must be \[width, 1\]"):
            EstimatorConfig(input_dim=3, n_heads=2, head_layers=head_layers)


def test_sizes_are_bounded_before_anything_is_allocated():
    # One input of width k, a 1-wide layer and one head of a 1-wide hidden
    # layer hold (k + 1) + (1 + 1 + 1) + (1 + 1) parameters.
    EstimatorConfig(input_dim=MAX_PARAMS - 6, n_heads=1, backbone_layers=(1,),
                    head_layers=(1, 1))
    with pytest.raises(ValueError, match=f"{MAX_PARAMS + 1} parameters, more than {MAX_PARAMS}"):
        EstimatorConfig(input_dim=MAX_PARAMS - 5, n_heads=1, backbone_layers=(1,),
                        head_layers=(1, 1))
    with pytest.raises(ValueError, match="parameters"):
        EstimatorConfig(input_dim=3, n_heads=2, backbone_layers=(10**9, 10**9))
    EstimatorConfig(input_dim=3, n_heads=MAX_HEADS, backbone_layers=(4,), head_layers=(1, 1))
    for n_heads in (MAX_HEADS + 1, 10**9):
        with pytest.raises(ValueError, match=f"at most {MAX_HEADS}"):
            EstimatorConfig(input_dim=3, n_heads=n_heads, backbone_layers=(4,),
                            head_layers=(1, 1))
        with pytest.raises(ValueError, match=f"at most {MAX_HEADS}"):
            HorizonConfig(delta_t=0.1, n_heads=n_heads, lam=0.8, trunc_n=1)


def test_a_checkpoint_of_an_estimator_too_large_is_rejected_before_allocating_it(tmp_path):
    import json

    path = tmp_path / "ckpt.json"
    save_checkpoint(path, trained_state(23))
    doc = json.loads(path.read_text())
    doc["estimator"]["backbone_layers"] = [10**6, 10**6]
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match=f"more than {MAX_PARAMS}"):
        load_checkpoint(path)


def test_zero_parameters_zero_outputs():
    est = small_estimator()
    est.set_flat(np.zeros(est.n_params))
    out = est.forward(np.ones(3))
    assert out.shape == (4,)
    assert np.all(out == 0.0)


def test_forward_deterministic_across_instances():
    a = small_estimator(seed=9)
    b = small_estimator(seed=9)
    x = np.random.default_rng(0).normal(size=(5, 3))
    assert np.array_equal(a.forward(x), b.forward(x))


def test_forward_batch_matches_single():
    est = small_estimator(seed=2)
    x = np.random.default_rng(1).normal(size=(4, 3))
    batch = est.forward(x)
    for row, feats in zip(batch, x):
        assert est.forward(feats) == pytest.approx(row, abs=1e-14)


CONFIGS = Path(__file__).resolve().parents[1] / "configs"
CORPUS_ROWS = 2 * ROW_CHUNK + 600


@functools.cache
def fixture_case(name):
    """The estimator of an acceptance fixture's config, and a corpus of inputs."""

    cfg = load_config(CONFIGS / name).estimator
    x = np.random.default_rng(7).normal(size=(CORPUS_ROWS, cfg.input_dim))
    return MultiHeadEstimator(cfg), x


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(["chain_small.json", "corridor_default.json"]),
    size=st.one_of(
        st.integers(1, ROW_FLOOR - 1),
        st.just(ROW_FLOOR),
        st.sampled_from([ROW_CHUNK - 1, ROW_CHUNK, ROW_CHUNK + 1, 2 * ROW_CHUNK,
                         2 * ROW_CHUNK + 1, CORPUS_ROWS]),
        st.integers(ROW_FLOOR + 1, CORPUS_ROWS),
    ),
    contiguous=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_a_batch_row_gets_the_bits_it_gets_in_any_other_batch(name, size, contiguous, seed):
    # Rounding that depends on the batch would make every corpus forward
    # (snapshot, evaluation, reports) depend on how rows are grouped.
    est, x = fixture_case(name)
    rng = np.random.default_rng(seed)
    if contiguous:
        start = int(rng.integers(0, CORPUS_ROWS - size + 1))
        idx = np.arange(start, start + size)
    else:
        idx = rng.choice(CORPUS_ROWS, size=size, replace=False)
    assert est.forward(x[idx]).tobytes() == est.forward(x)[idx].tobytes()


def test_head_perturbation_respects_chain_topology():
    # Head i feeds every later head but no earlier one, and never the
    # backbone: nudging head 3's weights may move heads 3 and 4 only.
    est = small_estimator(seed=5)
    x = np.random.default_rng(2).normal(size=(6, 3))
    before = est.forward(x)
    est.params["head2.l0.w"] += 0.05
    after = est.forward(x)
    assert np.array_equal(before[:, :2], after[:, :2])
    assert not np.allclose(before[:, 2], after[:, 2])
    assert not np.allclose(before[:, 3], after[:, 3])


def test_backbone_perturbation_moves_everything():
    est = small_estimator(seed=6)
    x = np.random.default_rng(3).normal(size=(4, 3))
    before = est.forward(x)
    est.params["backbone0.w"] += 0.05
    after = est.forward(x)
    assert not np.allclose(before, after)


def test_input_dim_mismatch():
    est = small_estimator()
    with pytest.raises(ValueError):
        est.forward(np.ones((2, 5)))


@pytest.mark.parametrize("x", [np.ones(5), np.ones(2), np.ones(0), np.float64(1.0)],
                         ids=["long", "short", "empty", "scalar"])
def test_an_observation_of_the_wrong_shape_is_named_by_the_input_width(x):
    # The message names the vector shape, not a padded [1, k] matrix.
    with pytest.raises(ValueError, match=r"\[3\], got shape \(\d*,?\)"):
        small_estimator().forward(x)


def one_row(est, x):
    """The training step's unpadded forward of the single row x."""

    return est._forward_cached(x[None], want_cache=False)[0][0]


def test_an_observation_is_scored_with_the_parameters_of_the_moment():
    # Scoring reads the weights on every call: an Adam step or set_flat,
    # both in place, shows in the next score.
    est = small_estimator(seed=3)
    x = np.random.default_rng(5).normal(size=3)
    before = est.forward(x)
    optimizer_step(est, np.full(est.n_params, 0.5), AdamState.zeros(est), 0.01)
    stepped = est.forward(x)
    assert not np.array_equal(stepped, before)
    assert stepped.tobytes() == one_row(est, x).tobytes()
    est.set_flat(np.linspace(-0.5, 0.5, est.n_params))
    fresh = small_estimator(seed=9)
    fresh.set_flat(np.linspace(-0.5, 0.5, est.n_params))
    assert est.forward(x).tobytes() == one_row(fresh, x).tobytes()


def test_flat_round_trip():
    est = small_estimator(seed=7)
    flat = get_flat(est)
    assert flat.shape == (est.n_params,)
    clone = small_estimator(seed=0)
    clone.set_flat(flat)
    x = np.random.default_rng(4).normal(size=(3, 3))
    assert np.array_equal(est.forward(x), clone.forward(x))


def _write_set_flat(est, rng):
    est.set_flat(rng.normal(scale=0.5, size=est.n_params))


def _write_adam_step(est, rng):
    optimizer_step(est, rng.normal(size=est.n_params), AdamState.zeros(est), 0.05)


def _write_named_views(est, rng):
    # A hidden head layer, an output layer and a backbone bias.
    for name in ("head1.l0.w", "head2.l1.w", "backbone1.b"):
        est.params[name][...] = rng.normal(size=est.params[name].shape)


@pytest.mark.parametrize("write", [_write_set_flat, _write_adam_step, _write_named_views],
                         ids=["set_flat", "optimizer_step", "named_view"])
def test_every_pass_sees_parameters_written_in_place(write):
    # The passes walk layer views bound when the estimator (and its gradient
    # buffer) was made; whichever way params.flat is written, they must give
    # what a fresh estimator holding the same vector gives.
    cfg = EstimatorConfig(input_dim=3, n_heads=3, backbone_layers=(6, 6), head_layers=(4, 1),
                          init_seed=2)
    est = MultiHeadEstimator(cfg)
    rng = np.random.default_rng(8)
    x = rng.normal(size=(5, 3))
    batch = (rng.uniform(size=(5, 3)), rng.random((5, 3)) < 0.8, rng.random(5) < 0.5, W)
    before = est.forward(x)
    batch_loss_and_grad(est, x, *batch)  # makes the gradient buffer
    write(est, rng)
    fresh = MultiHeadEstimator(replace(cfg, init_seed=9))
    fresh.set_flat(est.params.flat)
    assert not np.array_equal(est.forward(x), before)
    assert est.forward(x[0]).tobytes() == fresh.forward(x[0]).tobytes()
    assert est.forward(x).tobytes() == fresh.forward(x).tobytes()
    total, _, grads = batch_loss_and_grad(est, x, *batch)
    want_total, _, want = batch_loss_and_grad(fresh, x, *batch)
    assert total == want_total
    assert grads.flat.tobytes() == want.flat.tobytes()


# --- scalar loss terms ------------------------------------------------------
# Per-entry reference oracles for the vectorized batch loss.


def loss_mse(prediction, target, collision_sample, weights):
    """Squared error, importance-weighted for accepted collision windows."""

    assert 0.0 <= target <= 1.0
    w = weights.collision_mse_factor if collision_sample else 1.0
    return w * (target - prediction) ** 2


def loss_interval(prediction, c_interval):
    """Hinge on leaving [0, 1]: c * max(0, max(-p, p - 1))."""

    return c_interval * max(0.0, max(-prediction, prediction - 1.0))


def loss_chain(predictions, head, c_chain):
    """One-sided hinges tying head `head` (1-based) to its neighbours: the
    first head only against its successor, the last only against its
    predecessor, interior heads against both."""

    p = np.asarray(predictions, dtype=np.float64)
    idx = head - 1
    total = 0.0
    if idx >= 1:
        total += max(p[idx - 1] - p[idx], 0.0)
    if idx <= p.shape[0] - 2:
        total += max(p[idx] - p[idx + 1], 0.0)
    return c_chain * total



def test_mse_worked_values():
    assert loss_mse(0.7, 1.0, False, W) == pytest.approx(0.09)
    assert loss_mse(0.42, 0.42, True, W) == 0.0
    # Collision windows are down-weighted by p_nc / p_c = 0.1.
    assert loss_mse(0.0, 1.0, True, W) == pytest.approx(0.1)


def test_interval_worked_values():
    assert loss_interval(1.2, 1.0) == pytest.approx(0.2)
    assert loss_interval(0.5, 1.0) == 0.0
    assert loss_interval(-0.3, 2.0) == pytest.approx(0.6)
    assert loss_interval(0.0, 1.0) == 0.0
    assert loss_interval(1.0, 1.0) == 0.0


def test_chain_worked_values():
    assert loss_chain(np.array([0.4, 0.3]), 1, 1.0) == pytest.approx(0.1)
    assert loss_chain(np.array([0.1, 0.2, 0.7]), 2, 1.0) == 0.0
    assert loss_chain(np.array([0.5, 0.2, 0.6]), 2, 1.0) == pytest.approx(0.3)
    # Last head sees only its predecessor.
    assert loss_chain(np.array([0.5, 0.2, 0.6]), 3, 1.0) == 0.0
    assert loss_chain(np.array([0.5, 0.2]), 2, 2.0) == pytest.approx(0.6)


def test_hinges_zero_exactly_on_valid_cdf_vectors():
    rng = np.random.default_rng(12)
    for _ in range(50):
        p = np.sort(rng.uniform(0.0, 1.0, size=5))
        assert loss_interval(p[0], 1.0) == 0.0
        for head in range(1, 6):
            assert loss_chain(p, head, 1.0) == 0.0
        q = p.copy()
        q[2] = q[1] - 0.2  # break monotonicity
        assert loss_chain(q, 3, 1.0) > 0.0


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    b=st.integers(1, 12),
    n_heads=st.integers(1, 5),
    scale=st.floats(0.1, 10.0),
    c_interval=st.floats(0.0, 3.0),
    c_chain=st.floats(0.0, 3.0),
    p_collision=st.floats(0.05, 1.0),
)
def test_batch_loss_is_the_mean_of_the_scalar_terms(seed, b, n_heads, scale, c_interval,
                                                   c_chain, p_collision):
    rng = np.random.default_rng(seed)
    est = small_estimator(seed=seed % 1000, n_heads=n_heads)
    weights = LossWeights(c_interval=c_interval, c_chain=c_chain, p_collision=p_collision,
                          p_noncollision=p_collision / 4)
    feats = scale * rng.normal(size=(b, 3))
    targets = rng.uniform(0.0, 1.0, size=(b, n_heads))
    valid = rng.random((b, n_heads)) < 0.7
    valid[rng.integers(b), rng.integers(n_heads)] = True
    coll = rng.random(b) < 0.5
    total, breakdown, _ = batch_loss_and_grad(est, feats, targets, valid, coll, weights)
    preds = est.forward(feats)
    entries = list(zip(*np.nonzero(valid)))
    mse = sum(loss_mse(preds[k, h], targets[k, h], coll[k], weights) for k, h in entries)
    interval = sum(loss_interval(preds[k, h], c_interval) for k, h in entries)
    chain = sum(loss_chain(preds[k], h + 1, c_chain) for k, h in entries)
    n = len(entries)
    assert breakdown.n_valid == n
    assert breakdown.mse == pytest.approx(mse / n, rel=1e-12, abs=1e-15)
    assert breakdown.interval == pytest.approx(interval / n, rel=1e-12, abs=1e-15)
    assert breakdown.chain == pytest.approx(chain / n, rel=1e-12, abs=1e-15)
    assert total == pytest.approx((mse + interval + chain) / n, rel=1e-12, abs=1e-15)


def reference_d_preds(preds, targets, valid, collision_mask, weights):
    """d(loss)/d(raw head outputs) with the chain hinges' gradient built from
    four arrays, one weight and one gradient per side of each hinge."""

    n_valid = int(valid.sum())
    err = preds - np.where(valid, targets, 0.0)
    mse_w = np.where(collision_mask, weights.collision_mse_factor, 1.0)[:, None]
    vmask = valid.astype(np.float64)
    d_preds = vmask * (2.0 * mse_w * err)
    d_preds += vmask * weights.c_interval * (np.where(preds > 1.0, 1.0, 0.0)
                                             - np.where(preds < 0.0, 1.0, 0.0))
    active = (preds[:, :-1] - preds[:, 1:]) > 0.0
    # Hinge of a valid entry at idx against its predecessor (idx >= 1).
    left = vmask[:, 1:] * active
    d_left = weights.c_chain * left
    d_preds_chain = np.zeros_like(preds)
    d_preds_chain[:, :-1] += d_left
    d_preds_chain[:, 1:] -= d_left
    # Hinge of a valid entry at idx against its successor (idx <= n-2).
    right = vmask[:, :-1] * active
    d_right = weights.c_chain * right
    d_preds_chain[:, :-1] += d_right
    d_preds_chain[:, 1:] -= d_right
    d_preds += d_preds_chain
    d_preds /= n_valid
    return d_preds


def reference_breakdown(preds, targets, valid, collision_mask, weights):
    """(total, mse, interval, chain, n_valid) summed term array by term
    array, each masked by a product with the float valid mask. The loss
    columns of metrics.tsv carry these bits."""

    n_valid = int(valid.sum())
    err = preds - np.where(valid, targets, 0.0)
    mse_w = np.where(collision_mask, weights.collision_mse_factor, 1.0)[:, None]
    mse_terms = mse_w * err**2
    below = np.maximum(-preds, 0.0)
    above = np.maximum(preds - 1.0, 0.0)
    interval_terms = weights.c_interval * (below + above)
    pos = np.maximum(preds[:, :-1] - preds[:, 1:], 0.0)
    chain_terms = np.zeros_like(preds)
    chain_terms[:, 1:] += pos
    chain_terms[:, :-1] += pos
    chain_terms *= weights.c_chain
    vmask = valid.astype(np.float64)
    mse_sum = float((mse_terms * vmask).sum())
    interval_sum = float((interval_terms * vmask).sum())
    chain_sum = float((chain_terms * vmask).sum())
    total = (mse_sum + interval_sum + chain_sum) / n_valid
    return total, mse_sum / n_valid, interval_sum / n_valid, chain_sum / n_valid, n_valid


class TiedEstimator(MultiHeadEstimator):
    """Head outputs rounded to multiples of 1/8, so that neighbouring heads
    often tie; the cache stays the unrounded forward's."""

    def _forward_cached(self, x, want_cache=True):
        preds, cache = super()._forward_cached(x, want_cache)
        return np.round(preds * 8.0) / 8.0, cache


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    b=st.integers(1, 40),
    n_heads=st.integers(1, 6),
    ties=st.booleans(),
    p_valid=st.sampled_from([0.0, 0.3, 0.8, 1.0]),
    scale=st.floats(0.1, 10.0),
    c_interval=st.one_of(st.sampled_from([0.0, 1e-7, 1.0, 7.77, 1e300]), st.floats(0.0, 5.0)),
    c_chain=st.one_of(st.sampled_from([0.0, 1e-7, 1.0, 7.77, 1e300]), st.floats(0.0, 5.0)),
    p_collision=st.floats(0.05, 1.0),
    ratio=st.floats(0.01, 1.0),
)
def test_loss_breakdown_and_gradient_match_the_reference_bitwise(
        seed, b, n_heads, ties, p_valid, scale, c_interval, c_chain, p_collision, ratio):
    rng = np.random.default_rng(seed)
    cls = TiedEstimator if ties else MultiHeadEstimator
    est = cls(EstimatorConfig(input_dim=3, n_heads=n_heads, backbone_layers=(6, 6),
                              head_layers=(4, 1), init_seed=seed % 1000))
    weights = LossWeights(c_interval=c_interval, c_chain=c_chain, p_collision=p_collision,
                          p_noncollision=p_collision * ratio)
    feats = scale * rng.normal(size=(b, 3))
    targets = rng.uniform(0.0, 1.0, size=(b, n_heads))
    valid = rng.random((b, n_heads)) < p_valid
    valid[rng.integers(b), rng.integers(n_heads)] = True
    coll = rng.random(b) < 0.5
    preds, cache = est._forward_cached(feats)
    want = reference_breakdown(preds, targets, valid, coll, weights)
    if not np.isfinite(want[0]):
        with pytest.raises(NonFiniteUpdateError):
            batch_loss_and_grad(est, feats, targets, valid, coll, weights)
        return
    total, got, grads = batch_loss_and_grad(est, feats, targets, valid, coll, weights)
    got_grad = grads.flat.tobytes()
    fields = (total, got.mse, got.interval, got.chain)
    assert np.array(fields).tobytes() == np.array(want[:4]).tobytes()
    assert got.total == total and got.n_valid == want[4]
    d_preds = reference_d_preds(preds, targets, valid, coll, weights)
    assert got_grad == est._backward(cache, d_preds).flat.tobytes()


@pytest.mark.parametrize("c_chain", [0.0, 0.3, 2.0])
@pytest.mark.parametrize("n_heads", [1, 5])
@pytest.mark.parametrize("seed", range(4))
def test_chain_hinge_gradient_matches_the_four_array_reference_bitwise(seed, n_heads, c_chain):
    rng = np.random.default_rng(seed)
    est = TiedEstimator(EstimatorConfig(input_dim=3, n_heads=n_heads, backbone_layers=(6, 6),
                                        head_layers=(4, 1), init_seed=seed))
    weights = LossWeights(c_interval=1.0, c_chain=c_chain, p_collision=0.25,
                          p_noncollision=0.025)
    b = 40
    feats = 3.0 * rng.normal(size=(b, 3))
    targets = rng.uniform(0.0, 1.0, size=(b, n_heads))
    valid = rng.random((b, n_heads)) < 0.6
    valid[:4] = True
    valid[4:8] = False
    coll = rng.random(b) < 0.5
    _, _, grads = batch_loss_and_grad(est, feats, targets, valid, coll, weights)
    got = grads.flat.copy()
    preds, cache = est._forward_cached(feats)
    if n_heads > 1:
        gaps = preds[:, :-1] - preds[:, 1:]
        assert (gaps == 0.0).any() and (gaps > 0.0).any()
    want = est._backward(cache, reference_d_preds(preds, targets, valid, coll, weights))
    assert got.tobytes() == want.flat.tobytes()


# --- batch loss and gradients -----------------------------------------------


def batch_of(est, b, seed=0, all_valid=True):
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(b, est.config.input_dim))
    targets = rng.uniform(0.0, 1.0, size=(b, est.config.n_heads))
    valid = (
        np.ones((b, est.config.n_heads), bool)
        if all_valid
        else rng.random((b, est.config.n_heads)) < 0.7
    )
    coll = rng.random(b) < 0.5
    return feats, targets, valid, coll


def test_perfect_predictions_zero_loss_zero_grad():
    est = small_estimator()
    est.set_flat(np.zeros(est.n_params))
    feats = np.random.default_rng(5).normal(size=(3, 3))
    targets = np.zeros((3, 4))
    valid = np.ones((3, 4), bool)
    coll = np.zeros(3, bool)
    total, breakdown, grads = batch_loss_and_grad(est, feats, targets, valid, coll, W)
    assert total == 0.0
    assert breakdown.mse == breakdown.interval == breakdown.chain == 0.0
    assert all(np.all(g == 0.0) for g in grads.values())


def test_loss_permutation_invariant():
    est = small_estimator(seed=3)
    feats, targets, valid, coll = batch_of(est, 8, seed=11, all_valid=False)
    total, _, _ = batch_loss_and_grad(est, feats, targets, valid, coll, W)
    perm = np.random.default_rng(6).permutation(8)
    total_p, _, _ = batch_loss_and_grad(
        est, feats[perm], targets[perm], valid[perm], coll[perm], W
    )
    assert total_p == pytest.approx(total, rel=1e-12)


def test_doubling_chain_weight_doubles_chain_term_only():
    est = small_estimator(seed=4)
    feats, targets, valid, coll = batch_of(est, 6, seed=12)
    _, b1, _ = batch_loss_and_grad(est, feats, targets, valid, coll, W)
    w2 = LossWeights(c_interval=1.0, c_chain=2.0, p_collision=0.25, p_noncollision=0.025)
    _, b2, _ = batch_loss_and_grad(est, feats, targets, valid, coll, w2)
    assert b2.chain == pytest.approx(2.0 * b1.chain, rel=1e-12)
    assert b2.mse == pytest.approx(b1.mse, rel=1e-12)
    assert b2.interval == pytest.approx(b1.interval, rel=1e-12)


def test_all_masked_batch_rejected():
    est = small_estimator()
    feats = np.zeros((2, 3))
    targets = np.zeros((2, 4))
    valid = np.zeros((2, 4), bool)
    with pytest.raises(EmptyBatchError):
        batch_loss_and_grad(est, feats, targets, valid, np.zeros(2, bool), W)
    with pytest.raises(EmptyBatchError):
        batch_loss_and_grad(est, np.zeros((0, 3)), targets, valid, np.zeros(2, bool), W)


def test_invalid_targets_rejected():
    est = small_estimator()
    feats = np.zeros((1, 3))
    valid = np.ones((1, 4), bool)
    with pytest.raises(ValueError):
        batch_loss_and_grad(est, feats, np.full((1, 4), 1.5), valid, np.zeros(1, bool), W)
    with pytest.raises(ValueError):
        batch_loss_and_grad(est, feats, np.full((1, 4), np.nan), valid, np.zeros(1, bool), W)


def test_masked_targets_ignored_but_predictions_still_chained():
    # A masked entry's target may be garbage without touching the loss...
    est = small_estimator(seed=8)
    feats, targets, valid, coll = batch_of(est, 4, seed=13)
    valid[1, 2] = False
    t2 = targets.copy()
    t2[1, 2] = 0.0
    a, _, _ = batch_loss_and_grad(est, feats, targets, valid, coll, W)
    b, _, _ = batch_loss_and_grad(est, feats, t2, valid, coll, W)
    assert a == pytest.approx(b, rel=1e-12)
    # ...but a neighbouring valid head still hinges against its prediction:
    # the gradient of head 3's parameters is generally nonzero.
    _, _, grads = batch_loss_and_grad(est, feats, t2, valid, coll, W)
    assert any(np.any(grads[k] != 0.0) for k in grads if k.startswith("head2."))


def finite_difference_check(est, feats, targets, valid, coll, weights, step=1e-5):
    """Max relative error between analytic and central-difference gradients."""

    def loss_at(flat):
        est.set_flat(flat)
        total, _, _ = batch_loss_and_grad(
            est, feats, targets, valid, coll, weights
        )
        return total

    base = get_flat(est)
    _, _, grads = batch_loss_and_grad(est, feats, targets, valid, coll, weights)
    analytic = np.concatenate([grads[k].ravel() for k in est.params])
    numeric = np.empty_like(analytic)
    for j in range(base.size):
        plus = base.copy()
        plus[j] += step
        minus = base.copy()
        minus[j] -= step
        numeric[j] = (loss_at(plus) - loss_at(minus)) / (2.0 * step)
    est.set_flat(base)
    denom = max(float(np.linalg.norm(analytic)), 1e-12)
    return float(np.linalg.norm(analytic - numeric)) / denom


def kink_distance(est, feats):
    preds = est.forward(feats)
    gaps = np.abs(preds[:, :-1] - preds[:, 1:]) if preds.shape[1] > 1 else np.ones(1)
    return min(
        float(np.abs(preds).min()),
        float(np.abs(preds - 1.0).min()),
        float(gaps.min()),
    )


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(77)
    done = 0
    seed = 0
    while done < 6:
        seed += 1
        est = MultiHeadEstimator(
            EstimatorConfig(
                input_dim=2,
                n_heads=3,
                backbone_layers=(5, 5),
                head_layers=(3, 1),
                init_seed=seed,
            )
        )
        feats = rng.normal(size=(4, 2))
        targets = rng.uniform(0, 1, size=(4, 3))
        valid = rng.random((4, 3)) < 0.8
        if not valid.any():
            continue
        coll = rng.random(4) < 0.5
        # Skip draws that park a prediction on a hinge kink, where central
        # differences straddle the non-differentiable point.
        if kink_distance(est, feats) < 1e-4:
            continue
        err = finite_difference_check(est, feats, targets, valid, coll, W)
        assert err < 1e-4, f"seed {seed}: relative error {err:.3g}"
        done += 1


def test_gradient_check_single_head():
    rng = np.random.default_rng(88)
    est = MultiHeadEstimator(
        EstimatorConfig(
            input_dim=2, n_heads=1, backbone_layers=(4,), head_layers=(1, 1), init_seed=1
        )
    )
    feats = rng.normal(size=(3, 2))
    targets = rng.uniform(0, 1, size=(3, 1))
    valid = np.ones((3, 1), bool)
    coll = np.array([True, False, False])
    err = finite_difference_check(est, feats, targets, valid, coll, W)
    assert err < 1e-4


# --- reference forward and backward ----------------------------------------
#
# The forward and backward passes as they were written before the head input
# became one reused buffer: a fresh concatenated [B, latent + 1] input per
# head, out-of-place biases and activations, and a cache of every layer's
# (input, pre-activation, activation). The estimator's training step must
# match them bit for bit.


class ReferenceEstimator(MultiHeadEstimator):
    def _forward_cached(self, x, want_cache=True):
        cfg, p = self.config, self.params
        h = x
        bb = []
        for l in range(len(cfg.backbone_layers)):
            z = h @ p[f"backbone{l}.w"].T + p[f"backbone{l}.b"]
            a = np.tanh(z)
            bb.append((h, z, a))
            h = a + h if self._residual[l] else a
        latent = h
        n = x.shape[0]
        preds = np.empty((n, cfg.n_heads))
        heads = []
        prev = np.zeros(n)
        for i in range(cfg.n_heads):
            cur = np.concatenate([latent, prev[:, None]], axis=1)
            layers = []
            for l in range(len(cfg.head_layers)):
                z = cur @ p[f"head{i}.l{l}.w"].T + p[f"head{i}.l{l}.b"]
                a = np.tanh(z) if l < len(cfg.head_layers) - 1 else z
                layers.append((cur, z, a))
                cur = a
            heads.append(layers)
            preds[:, i] = cur[:, 0]
            prev = cur[:, 0]
        cache = {"backbone": bb, "latent": latent, "heads": heads} if want_cache else None
        return preds, cache

    def _backward(self, cache, d_preds):
        cfg, p = self.config, self.params
        grads = {k: np.zeros_like(v) for k, v in p.items()}
        d_pred = d_preds.astype(np.float64).copy()
        latent_dim = cfg.backbone_layers[-1]
        d_latent = np.zeros_like(cache["latent"])
        for i in reversed(range(cfg.n_heads)):
            d_cur = d_pred[:, i][:, None]
            for l in reversed(range(len(cfg.head_layers))):
                inp, z, a = cache["heads"][i][l]
                d_z = d_cur * (1.0 - a * a) if l < len(cfg.head_layers) - 1 else d_cur
                grads[f"head{i}.l{l}.w"] += d_z.T @ inp
                grads[f"head{i}.l{l}.b"] += d_z.sum(axis=0)
                d_cur = d_z @ p[f"head{i}.l{l}.w"]
            d_latent += d_cur[:, :latent_dim]
            if i > 0:
                d_pred[:, i - 1] += d_cur[:, latent_dim]
        d_h = d_latent
        for l in reversed(range(len(cfg.backbone_layers))):
            h_in, z, a = cache["backbone"][l]
            d_z = d_h * (1.0 - a * a)
            grads[f"backbone{l}.w"] += d_z.T @ h_in
            grads[f"backbone{l}.b"] += d_z.sum(axis=0)
            d_prev = d_z @ p[f"backbone{l}.w"]
            if self._residual[l]:
                d_prev += d_h
            d_h = d_prev
        return grads


def test_a_one_row_batch_gets_the_reference_gradient_bits():
    # With one row, each weight gradient is an outer product. Subnormal
    # inputs make products that underflow to a zero of either sign, and the
    # gradient must hold +0.0 for them, as the reference's zero-filled sums do.
    cfg = EstimatorConfig(input_dim=5, n_heads=4, backbone_layers=(12, 12), head_layers=(8, 1),
                          init_seed=3)
    est, ref = MultiHeadEstimator(cfg), ReferenceEstimator(cfg)
    rng = np.random.default_rng(3)
    valid, coll = np.ones((1, 4), bool), np.array([False])
    for _ in range(10):
        x = rng.normal(scale=2.0, size=(1, 5))
        x[0, :2] = 5e-324, -5e-324
        targets = rng.uniform(size=(1, 4))
        _, _, grads = batch_loss_and_grad(est, x, targets, valid, coll, W)
        _, _, want = batch_loss_and_grad(ref, x, targets, valid, coll, W)
        want_flat = np.concatenate([want[k].ravel() for k in est.params])
        assert grads.flat.tobytes() == want_flat.tobytes()


@settings(max_examples=80, deadline=None)
@given(
    backbone=st.sampled_from([(12,), (12, 12), (16, 12, 12)]),
    head_layers=st.sampled_from([(1, 1), (16, 1)]),
    n_heads=st.integers(1, 6),
    rows=st.sampled_from([1, 32, 300]),
    seed=st.integers(0, 2**16),
)
def test_forward_and_gradients_match_the_reference_bitwise(
    backbone, head_layers, n_heads, rows, seed
):
    cfg = EstimatorConfig(input_dim=5, n_heads=n_heads, backbone_layers=backbone,
                          head_layers=head_layers, init_seed=seed)
    est, ref = MultiHeadEstimator(cfg), ReferenceEstimator(cfg)
    rng = np.random.default_rng(seed)
    x = rng.normal(scale=2.0, size=(rows, 5))
    # The training step's forward and single-observation scoring match bit
    # for bit. A batch forward runs row-invariant products, which round
    # differently.
    want = ref._forward_cached(x, want_cache=False)[0]
    assert est._forward_cached(x, want_cache=False)[0].tobytes() == want.tobytes()
    out = est.forward(x)
    assert out == pytest.approx(want, abs=1e-14)
    # The reference's 1-row forward, not ref.forward: a vector runs the
    # estimator's own matrix-vector loop whichever class calls it.
    one_row = ref._forward_cached(x[:1], want_cache=False)[0][0]
    assert est.forward(x[0]).tobytes() == one_row.tobytes()

    targets = rng.uniform(size=(rows, n_heads))
    valid = rng.uniform(size=(rows, n_heads)) < 0.7
    valid[0, 0] = True
    collision = rng.uniform(size=rows) < 0.3
    # Call twice: the second backward reuses the gradient buffer and the
    # forward's head-input buffer must not leak between calls.
    for _ in range(2):
        total, _, grads = batch_loss_and_grad(est, x, targets, valid, collision, W)
        want_total, _, want = batch_loss_and_grad(ref, x, targets, valid, collision, W)
        assert total == want_total
        want_flat = np.concatenate([want[k].ravel() for k in est.params])
        assert grads.flat.tobytes() == want_flat.tobytes()
    # The returned outputs are the caller's: a later call does not touch them.
    scored = est.forward(x[0])
    kept, kept_scored = out.copy(), scored.copy()
    est.forward(x + 1.0)
    est.forward(x[0] + 1.0)
    assert out.tobytes() == kept.tobytes()
    assert scored.tobytes() == kept_scored.tobytes()


# --- optimizer --------------------------------------------------------------


def test_adam_zero_gradient_no_move():
    est = small_estimator(seed=1)
    before = get_flat(est)
    state = AdamState.zeros(est)
    optimizer_step(est, np.zeros(est.n_params), state, 1e-3)
    assert np.array_equal(get_flat(est), before)
    assert state.step == 1


def test_adam_first_step_is_signed_lr():
    # With zero moments, bias correction makes the first update
    # lr * g / (|g| + eps): essentially lr * sign(g).
    est = small_estimator(seed=2)
    before = {k: p.copy() for k, p in est.params.items()}
    state = AdamState.zeros(est)
    lr = 1e-3
    optimizer_step(est, np.full(est.n_params, 0.5), state, lr)
    expected_move = lr * 0.5 / (np.sqrt(0.25) + 1e-8)
    for k, p in est.params.items():
        assert p == pytest.approx(before[k] - expected_move, abs=1e-12)


def test_adam_descends_monotonically_on_fixed_gradient():
    est = small_estimator(seed=3)
    p0 = get_flat(est)
    grad = np.ones(est.n_params)
    state = AdamState.zeros(est)
    optimizer_step(est, grad, state, 1e-3)
    p1 = get_flat(est)
    optimizer_step(est, grad, state, 1e-3)
    p2 = get_flat(est)
    assert np.all(p1 < p0)
    assert np.all(p2 < p1)


def test_adam_rejects_nonfinite_gradient_before_mutation():
    est = small_estimator(seed=4)
    before = get_flat(est)
    grads = FlatArrays(np.ones(est.n_params), param_layout(est.config))
    grads["head1.l0.w"][0, 0] = np.inf
    state = AdamState.zeros(est)
    with pytest.raises(NonFiniteUpdateError):
        optimizer_step(est, grads.flat, state, 1e-3)
    assert np.array_equal(get_flat(est), before)
    assert state.step == 0


def reference_adam_step(params, grads, m, v, step, lr):
    """Adam one array at a time: the arithmetic the flat update must keep."""

    bc1 = 1.0 - ADAM_BETA1**step
    bc2 = 1.0 - ADAM_BETA2**step
    for k, p in params.items():
        g = grads[k]
        m[k] = ADAM_BETA1 * m[k] + (1.0 - ADAM_BETA1) * g
        v[k] = ADAM_BETA2 * v[k] + (1.0 - ADAM_BETA2) * g * g
        p -= lr * (m[k] / bc1) / (np.sqrt(v[k] / bc2) + ADAM_EPS)


def test_flat_adam_matches_per_array_reference_bitwise():
    est = small_estimator(seed=5)
    ref = {k: p.copy() for k, p in est.params.items()}
    ref_m = {k: np.zeros_like(p) for k, p in ref.items()}
    ref_v = {k: np.zeros_like(p) for k, p in ref.items()}
    state = AdamState.zeros(est)
    rng = np.random.default_rng(5)
    feats = rng.normal(size=(6, 3))
    targets = rng.uniform(size=(6, 4))
    valid = np.ones((6, 4), bool)
    coll = rng.integers(0, 2, size=6).astype(bool)
    for step in range(1, 7):
        if step % 2:
            # A fresh vector, each parameter array at its own scale.
            grads = FlatArrays(np.concatenate(
                [rng.normal(scale=10.0 ** rng.integers(-6, 2), size=p.size) for p in ref.values()]
            ), param_layout(est.config))
        else:
            # The estimator's own gradient buffer.
            _, _, grads = batch_loss_and_grad(est, feats, targets, valid, coll, W)
        expected = {k: g.copy() for k, g in grads.items()}
        lr = 1e-3 / step
        optimizer_step(est, grads.flat, state, lr)
        reference_adam_step(ref, expected, ref_m, ref_v, step, lr)
        for k in ref:
            assert np.array_equal(est.params[k], ref[k])
        # The moments are vectors in the layout order the names follow.
        assert np.array_equal(state.m, np.concatenate([ref_m[k].ravel() for k in ref]))
        assert np.array_equal(state.v, np.concatenate([ref_v[k].ravel() for k in ref]))
    assert state.step == 6


def test_parameter_views_write_through_to_the_flat_vector():
    est = small_estimator(seed=6)
    offsets, off = {}, 0
    for name, shape in param_layout(est.config):
        offsets[name] = off
        off += int(np.prod(shape))
    assert off == est.n_params
    est.params["head1.l0.w"][0, 0] = 7.0
    est.params["backbone1.b"] += 1.0
    flat = get_flat(est)
    assert flat[offsets["head1.l0.w"]] == 7.0
    b, size = offsets["backbone1.b"], est.params["backbone1.b"].size
    assert np.array_equal(flat[b : b + size], est.params["backbone1.b"])
    flat[0] = -3.0  # get_flat is a copy
    assert est.params["backbone0.w"][0, 0] != -3.0
    est.set_flat(np.arange(est.n_params, dtype=float))
    assert est.params["head1.l0.w"][0, 0] == offsets["head1.l0.w"]


# --- checkpoints ------------------------------------------------------------


def horizon():
    return HorizonConfig(delta_t=0.1, n_heads=4, lam=0.8, trunc_n=3)


def trained_state(seed, steps=1, epochs_completed=0):
    """A run state after `steps` Adam steps on random gradients."""

    est = small_estimator(seed=seed)
    adam = AdamState.zeros(est)
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        optimizer_step(est, rng.normal(size=est.n_params), adam, 1e-3)
    metrics = [EpochMetrics(epoch=e, lr=1e-3, loss=0.5, loss_mse=0.25, loss_interval=0.125,
                            loss_chain=0.125, acc_per_head=(0.1, float("nan"), 0.3, 0.4),
                            pes_mean=-0.01) for e in range(epochs_completed)]
    sampler = np.random.PCG64(seed).state if epochs_completed else None
    return Checkpoint(est, horizon(), W, adam, epochs_completed, sampler, metrics)


def test_checkpoint_round_trip_bit_exact(tmp_path):
    state = trained_state(21, epochs_completed=7)
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, state)
    loaded = load_checkpoint(path)
    assert np.array_equal(get_flat(loaded.estimator), get_flat(state.estimator))
    assert loaded.estimator.config == state.estimator.config
    assert loaded.horizon == horizon()
    assert loaded.loss_weights == W
    assert loaded.epochs_completed == 7
    assert loaded.adam.step == state.adam.step
    assert np.array_equal(loaded.adam.m, state.adam.m)
    assert np.array_equal(loaded.adam.v, state.adam.v)
    assert loaded.sampler == state.sampler
    assert [m.epoch for m in loaded.metrics] == list(range(7))
    assert loaded.metrics[0].acc_per_head[0] == 0.1
    assert np.isnan(loaded.metrics[0].acc_per_head[1])


def test_undefined_metrics_are_written_as_null_and_read_back_as_nan(tmp_path):
    import json

    state = trained_state(26, epochs_completed=2)
    state.metrics[1].pes_mean = float("nan")
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, state)
    text = path.read_text()
    assert "NaN" not in text
    doc = json.loads(text)
    assert [m["pes_mean"] for m in doc["metrics"]] == [-0.01, None]
    assert [m["acc_per_head"][1] for m in doc["metrics"]] == [None, None]
    loaded = load_checkpoint(path)
    assert np.isnan(loaded.metrics[1].pes_mean)
    assert np.isnan(loaded.metrics[0].acc_per_head[1])
    # A file with NaN tokens in their place reads the same and is rewritten with null.
    for m in doc["metrics"]:
        m["acc_per_head"][1] = float("nan")
    doc["metrics"][1]["pes_mean"] = float("nan")
    tokens = tmp_path / "tokens.json"
    tokens.write_text(json.dumps(doc))
    again = tmp_path / "again.json"
    save_checkpoint(again, load_checkpoint(tokens))
    assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("field, value", [
    ("loss", float("inf")), ("lr", float("nan")), ("loss_chain", None),
    ("pes_mean", float("-inf")), ("acc_per_head", [0.1, float("inf"), 0.3, 0.4]),
])
def test_a_checkpoint_metric_that_json_cannot_hold_is_rejected(tmp_path, field, value):
    import json

    path = tmp_path / "ckpt.json"
    save_checkpoint(path, trained_state(27, epochs_completed=1))
    doc = json.loads(path.read_text())
    doc["metrics"][0][field] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match="metrics"):
        load_checkpoint(path)


def test_checkpoint_bytes_stable(tmp_path):
    state = trained_state(22, steps=0)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_checkpoint(a, state)
    save_checkpoint(b, state)
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.json"
    save_checkpoint(c, load_checkpoint(a))
    assert c.read_bytes() == a.read_bytes()


def test_checkpoint_save_load_save_is_byte_identical_with_adam(tmp_path):
    state = trained_state(24, steps=3, epochs_completed=3)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_checkpoint(a, state)
    loaded = load_checkpoint(a)
    save_checkpoint(b, loaded)
    assert b.read_bytes() == a.read_bytes()
    # The restored moments drive the next step exactly like the originals.
    grad = np.random.default_rng(24).normal(size=state.estimator.n_params)
    optimizer_step(state.estimator, grad, state.adam, 1e-3)
    optimizer_step(loaded.estimator, grad, loaded.adam, 1e-3)
    assert np.array_equal(get_flat(loaded.estimator), get_flat(state.estimator))


def test_save_checkpoint_rejects_a_non_horizon_under_optimization(tmp_path):
    # Under -O assert statements are stripped; the type check must remain,
    # even for an object that looks like a HorizonConfig.
    path = tmp_path / "ckpt.json"
    code = textwrap.dedent(
        f"""
        from types import SimpleNamespace
        from riskhorizon.network import (
            AdamState, Checkpoint, EstimatorConfig, LossWeights, MultiHeadEstimator,
            save_checkpoint)
        est = MultiHeadEstimator(EstimatorConfig(input_dim=3, n_heads=4))
        fake = SimpleNamespace(delta_t=0.1, n_heads=4, lam=0.8, trunc_n=3)
        try:
            save_checkpoint({str(path)!r},
                            Checkpoint(est, fake, LossWeights(), AdamState.zeros(est)))
        except TypeError:
            raise SystemExit(0)
        raise SystemExit(3)
        """
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert not path.exists()


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{}")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)
    path.write_text("not json")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)
    path.write_bytes(b'{"format": "\xff"}')
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_rejects_tampered_payload(tmp_path):
    import json

    path = tmp_path / "ckpt.json"
    save_checkpoint(path, trained_state(23))
    doc = json.loads(path.read_text())
    doc["params"] = doc["params"][:-12]
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match="expected"):
        load_checkpoint(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["params", "adam.m", "adam.v"])
def test_a_checkpoint_of_non_finite_values_is_rejected(tmp_path, field, value):
    import base64
    import json

    path = tmp_path / "ckpt.json"
    save_checkpoint(path, trained_state(23))
    doc = json.loads(path.read_text())
    section, key = (doc, field) if field == "params" else (doc["adam"], field[-1])
    values = np.frombuffer(base64.b64decode(section[key]), dtype="<f8").copy()
    values[3] = value
    section[key] = base64.b64encode(values.tobytes()).decode("ascii")
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match=f"{field}: the values must be finite"):
        load_checkpoint(path)


def test_a_version_1_checkpoint_names_its_version_and_says_to_retrain(tmp_path):
    import json

    path = tmp_path / "v1.json"
    save_checkpoint(path, trained_state(25, steps=2, epochs_completed=2))
    doc = json.loads(path.read_text())
    # What the version 1 writer wrote: no sampler state or metric history,
    # and a parameter layout.
    del doc["sampler"], doc["metrics"]
    path.write_text(json.dumps({**doc, "version": 1, "layout": []}))
    with pytest.raises(CheckpointError, match=r"a version 1 checkpoint; this version reads "
                                              r"version 3: re-run `riskhorizon train`"):
        load_checkpoint(path)


def test_a_version_2_checkpoint_names_its_version_and_says_to_retrain(tmp_path):
    import json

    path = tmp_path / "v2.json"
    save_checkpoint(path, trained_state(25, steps=2, epochs_completed=2))
    doc = json.loads(path.read_text())
    # What the version 2 writer wrote: the estimator's activation as well.
    doc["estimator"]["activation"] = "tanh"
    path.write_text(json.dumps({**doc, "version": 2}))
    with pytest.raises(CheckpointError, match=r"a version 2 checkpoint; this version reads "
                                              r"version 3: re-run `riskhorizon train`"):
        load_checkpoint(path)

