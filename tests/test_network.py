"""Estimator, composite loss, analytic gradients, Adam, checkpoints."""

import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskhorizon.network import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdamState,
    CheckpointError,
    EmptyBatchError,
    EstimatorConfig,
    LossWeights,
    MultiHeadEstimator,
    NonFiniteUpdateError,
    batch_loss_and_grad,
    load_checkpoint,
    loss_chain,
    loss_interval,
    loss_mse,
    optimizer_step,
    save_checkpoint,
)
from riskhorizon.returns import HorizonConfig

W = LossWeights(c_interval=1.0, c_chain=1.0, p_collision=0.25, p_noncollision=0.025)


def small_estimator(seed=0, input_dim=3, n_heads=4, activation="tanh"):
    return MultiHeadEstimator(
        EstimatorConfig(
            input_dim=input_dim,
            n_heads=n_heads,
            backbone_layers=(6, 6),
            head_layers=(4, 1),
            activation=activation,
            init_seed=seed,
        )
    )


# --- forward pass -----------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        EstimatorConfig(input_dim=0, n_heads=2)
    with pytest.raises(ValueError):
        EstimatorConfig(input_dim=3, n_heads=0)
    with pytest.raises(ValueError):
        EstimatorConfig(input_dim=3, n_heads=2, head_layers=(4, 2))
    with pytest.raises(ValueError):
        EstimatorConfig(input_dim=3, n_heads=2, activation="selu")


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


def test_flat_round_trip():
    est = small_estimator(seed=7)
    flat = est.get_flat()
    assert flat.shape == (est.n_params,)
    clone = small_estimator(seed=0)
    clone.set_flat(flat)
    x = np.random.default_rng(4).normal(size=(3, 3))
    assert np.array_equal(est.forward(x), clone.forward(x))


# --- scalar loss terms ------------------------------------------------------


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
    total, _, _ = batch_loss_and_grad(est, feats, targets, valid, coll, W, want_grad=False)
    perm = np.random.default_rng(6).permutation(8)
    total_p, _, _ = batch_loss_and_grad(
        est, feats[perm], targets[perm], valid[perm], coll[perm], W, want_grad=False
    )
    assert total_p == pytest.approx(total, rel=1e-12)


def test_doubling_chain_weight_doubles_chain_term_only():
    est = small_estimator(seed=4)
    feats, targets, valid, coll = batch_of(est, 6, seed=12)
    _, b1, _ = batch_loss_and_grad(est, feats, targets, valid, coll, W, want_grad=False)
    w2 = LossWeights(c_interval=1.0, c_chain=2.0, p_collision=0.25, p_noncollision=0.025)
    _, b2, _ = batch_loss_and_grad(est, feats, targets, valid, coll, w2, want_grad=False)
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
    a, _, _ = batch_loss_and_grad(est, feats, targets, valid, coll, W, want_grad=False)
    b, _, _ = batch_loss_and_grad(est, feats, t2, valid, coll, W, want_grad=False)
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
            est, feats, targets, valid, coll, weights, want_grad=False
        )
        return total

    base = est.get_flat()
    _, _, grads = batch_loss_and_grad(est, feats, targets, valid, coll, weights)
    analytic = np.concatenate([grads[k].ravel() for k, _ in est.layout()])
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


@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_gradient_matches_finite_differences(activation):
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
                activation=activation,
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
        if activation == "relu":
            # relu adds its own kinks; keep a safety margin there too.
            pass
        err = finite_difference_check(est, feats, targets, valid, coll, W)
        assert err < 1e-4, f"seed {seed}: relative error {err:.3g}"
        done += 1


def test_gradient_check_single_head():
    rng = np.random.default_rng(88)
    est = MultiHeadEstimator(
        EstimatorConfig(
            input_dim=2, n_heads=1, backbone_layers=(4,), head_layers=(1,), init_seed=1
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
# (input, pre-activation, activation). The estimator must match them bit for
# bit, so that every artifact stays byte-identical.


def _ref_act(z, kind):
    return np.maximum(z, 0.0) if kind == "relu" else np.tanh(z)


def _ref_act_grad(z, a, kind):
    return (z > 0.0).astype(np.float64) if kind == "relu" else 1.0 - a * a


class ReferenceEstimator(MultiHeadEstimator):
    def _forward_cached(self, x, want_cache=True):
        cfg, act, p = self.config, self.config.activation, self.params
        h = x
        bb = []
        for l in range(len(cfg.backbone_layers)):
            z = h @ p[f"backbone{l}.w"].T + p[f"backbone{l}.b"]
            a = _ref_act(z, act)
            bb.append((h, z, a))
            h = a + h if self._residual(l) else a
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
                a = _ref_act(z, act) if l < len(cfg.head_layers) - 1 else z
                layers.append((cur, z, a))
                cur = a
            heads.append(layers)
            preds[:, i] = cur[:, 0]
            prev = cur[:, 0]
        cache = {"backbone": bb, "latent": latent, "heads": heads} if want_cache else None
        return preds, cache

    def _backward(self, cache, d_preds):
        cfg, act, p = self.config, self.config.activation, self.params
        grads = {k: np.zeros_like(v) for k, v in p.items()}
        d_pred = d_preds.astype(np.float64).copy()
        latent_dim = cfg.backbone_layers[-1]
        d_latent = np.zeros_like(cache["latent"])
        for i in reversed(range(cfg.n_heads)):
            d_cur = d_pred[:, i][:, None]
            for l in reversed(range(len(cfg.head_layers))):
                inp, z, a = cache["heads"][i][l]
                d_z = d_cur * _ref_act_grad(z, a, act) if l < len(cfg.head_layers) - 1 else d_cur
                grads[f"head{i}.l{l}.w"] += d_z.T @ inp
                grads[f"head{i}.l{l}.b"] += d_z.sum(axis=0)
                d_cur = d_z @ p[f"head{i}.l{l}.w"]
            d_latent += d_cur[:, :latent_dim]
            if i > 0:
                d_pred[:, i - 1] += d_cur[:, latent_dim]
        d_h = d_latent
        for l in reversed(range(len(cfg.backbone_layers))):
            h_in, z, a = cache["backbone"][l]
            d_z = d_h * _ref_act_grad(z, a, act)
            grads[f"backbone{l}.w"] += d_z.T @ h_in
            grads[f"backbone{l}.b"] += d_z.sum(axis=0)
            d_prev = d_z @ p[f"backbone{l}.w"]
            if self._residual(l):
                d_prev += d_h
            d_h = d_prev
        return grads


@settings(max_examples=80, deadline=None)
@given(
    activation=st.sampled_from(["tanh", "relu"]),
    backbone=st.sampled_from([(12,), (12, 12), (16, 12, 12)]),
    head_layers=st.sampled_from([(16, 1), (16, 8, 1)]),
    n_heads=st.integers(1, 6),
    rows=st.sampled_from([1, 32, 300]),
    seed=st.integers(0, 2**16),
)
def test_forward_and_gradients_match_the_reference_bitwise(
    activation, backbone, head_layers, n_heads, rows, seed
):
    cfg = EstimatorConfig(input_dim=5, n_heads=n_heads, backbone_layers=backbone,
                          head_layers=head_layers, activation=activation, init_seed=seed)
    est, ref = MultiHeadEstimator(cfg), ReferenceEstimator(cfg)
    rng = np.random.default_rng(seed)
    x = rng.normal(scale=2.0, size=(rows, 5))
    out = est.forward(x)
    assert out.tobytes() == ref.forward(x).tobytes()
    assert est.forward(x[0]).tobytes() == ref.forward(x[0]).tobytes()

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
    kept = out.copy()
    est.forward(x + 1.0)
    assert out.tobytes() == kept.tobytes()


# --- optimizer --------------------------------------------------------------


def test_adam_zero_gradient_no_move():
    est = small_estimator(seed=1)
    before = est.get_flat()
    state = AdamState.zeros(est)
    grads = {k: np.zeros_like(p) for k, p in est.params.items()}
    optimizer_step(est, grads, state, 1e-3)
    assert np.array_equal(est.get_flat(), before)
    assert state.step == 1


def test_adam_first_step_is_signed_lr():
    # With zero moments, bias correction makes the first update
    # lr * g / (|g| + eps): essentially lr * sign(g).
    est = small_estimator(seed=2)
    before = {k: p.copy() for k, p in est.params.items()}
    grads = {k: np.full_like(p, 0.5) for k, p in est.params.items()}
    state = AdamState.zeros(est)
    lr = 1e-3
    optimizer_step(est, grads, state, lr)
    expected_move = lr * 0.5 / (np.sqrt(0.25) + 1e-8)
    for k, p in est.params.items():
        assert p == pytest.approx(before[k] - expected_move, abs=1e-12)


def test_adam_descends_monotonically_on_fixed_gradient():
    est = small_estimator(seed=3)
    p0 = est.get_flat()
    grads = {k: np.ones_like(p) for k, p in est.params.items()}
    state = AdamState.zeros(est)
    optimizer_step(est, grads, state, 1e-3)
    p1 = est.get_flat()
    optimizer_step(est, grads, state, 1e-3)
    p2 = est.get_flat()
    assert np.all(p1 < p0)
    assert np.all(p2 < p1)


def test_adam_rejects_nonfinite_gradient_before_mutation():
    est = small_estimator(seed=4)
    before = est.get_flat()
    grads = {k: np.ones_like(p) for k, p in est.params.items()}
    grads["backbone0.w"][0, 0] = np.inf
    state = AdamState.zeros(est)
    with pytest.raises(NonFiniteUpdateError):
        optimizer_step(est, grads, state, 1e-3)
    assert np.array_equal(est.get_flat(), before)
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
            # A plain dict of separate arrays.
            grads = {k: rng.normal(scale=10.0 ** rng.integers(-6, 2), size=p.shape)
                     for k, p in ref.items()}
        else:
            # The estimator's own gradient buffer.
            _, _, grads = batch_loss_and_grad(est, feats, targets, valid, coll, W)
        expected = {k: g.copy() for k, g in grads.items()}
        lr = 1e-3 / step
        optimizer_step(est, grads, state, lr)
        reference_adam_step(ref, expected, ref_m, ref_v, step, lr)
        for k in ref:
            assert np.array_equal(est.params[k], ref[k])
            assert np.array_equal(state.m[k], ref_m[k])
            assert np.array_equal(state.v[k], ref_v[k])
    assert state.step == 6


def test_parameter_views_write_through_to_the_flat_vector():
    est = small_estimator(seed=6)
    offsets, off = {}, 0
    for name, shape in est.layout():
        offsets[name] = off
        off += int(np.prod(shape))
    assert off == est.n_params
    est.params["head1.l0.w"][0, 0] = 7.0
    est.params["backbone1.b"] += 1.0
    flat = est.get_flat()
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


def test_checkpoint_round_trip_bit_exact(tmp_path):
    est = small_estimator(seed=21)
    adam = AdamState.zeros(est)
    grads = {k: np.full_like(p, 0.25) for k, p in est.params.items()}
    optimizer_step(est, grads, adam, 1e-3)
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, est, horizon(), W, adam=adam, epochs_completed=7)
    loaded = load_checkpoint(path)
    assert np.array_equal(loaded.estimator.get_flat(), est.get_flat())
    assert loaded.estimator.config == est.config
    assert loaded.horizon == horizon()
    assert loaded.loss_weights == W
    assert loaded.epochs_completed == 7
    assert loaded.adam is not None and loaded.adam.step == adam.step
    for k in est.params:
        assert np.array_equal(loaded.adam.m[k], adam.m[k])
        assert np.array_equal(loaded.adam.v[k], adam.v[k])


def test_checkpoint_bytes_stable(tmp_path):
    est = small_estimator(seed=22)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_checkpoint(a, est, horizon(), W)
    save_checkpoint(b, est, horizon(), W)
    assert a.read_bytes() == b.read_bytes()
    loaded = load_checkpoint(a)
    c = tmp_path / "c.json"
    save_checkpoint(c, loaded.estimator, loaded.horizon, loaded.loss_weights)
    assert c.read_bytes() == a.read_bytes()


def test_checkpoint_save_load_save_is_byte_identical_with_adam(tmp_path):
    est = small_estimator(seed=24)
    adam = AdamState.zeros(est)
    rng = np.random.default_rng(24)
    for _ in range(3):
        grads = {k: rng.normal(size=p.shape) for k, p in est.params.items()}
        optimizer_step(est, grads, adam, 1e-3)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_checkpoint(a, est, horizon(), W, adam=adam, epochs_completed=3)
    loaded = load_checkpoint(a)
    save_checkpoint(b, loaded.estimator, loaded.horizon, loaded.loss_weights,
                    adam=loaded.adam, epochs_completed=loaded.epochs_completed)
    assert b.read_bytes() == a.read_bytes()
    # The restored moments drive the next step exactly like the originals.
    grads = {k: rng.normal(size=p.shape) for k, p in est.params.items()}
    optimizer_step(est, grads, adam, 1e-3)
    optimizer_step(loaded.estimator, grads, loaded.adam, 1e-3)
    assert np.array_equal(loaded.estimator.get_flat(), est.get_flat())


def test_save_checkpoint_rejects_a_non_horizon_under_optimization(tmp_path):
    # Under -O assert statements are stripped; the type check must remain,
    # even for an object that looks like a HorizonConfig.
    path = tmp_path / "ckpt.json"
    code = textwrap.dedent(
        f"""
        from types import SimpleNamespace
        from riskhorizon.network import (
            EstimatorConfig, LossWeights, MultiHeadEstimator, save_checkpoint)
        est = MultiHeadEstimator(EstimatorConfig(input_dim=3, n_heads=4))
        fake = SimpleNamespace(delta_t=0.1, n_heads=4, lam=0.8, trunc_n=3)
        try:
            save_checkpoint({str(path)!r}, est, fake, LossWeights())
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

    est = small_estimator(seed=23)
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, est, horizon(), W)
    doc = json.loads(path.read_text())
    doc["layout"][0]["size"] += 1
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)
