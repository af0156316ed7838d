"""The eleven gate checks for this package, one test per criterion.

`pytest tests/test_acceptance.py -v` prints one verdict line per criterion;
add `-s` for a measured-quantity summary on each. The two trained fixtures
(a four-state chain and the corridor world) are deliberately small; both
finish within a few minutes on an ordinary laptop core.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from riskhorizon.envs import (
    ChainWorld,
    ChainWorldSpec,
    CorridorWorld,
    CorridorWorldSpec,
    chain_observation,
    generate_episodes,
)
from riskhorizon.evaluation import (
    DEFAULT_INTERVALS,
    DEFAULT_THRESHOLDS,
    detection_rate,
    evaluate,
)
from riskhorizon.network import (
    EstimatorConfig,
    LossWeights,
    MultiHeadEstimator,
    batch_loss_and_grad,
)
from riskhorizon.oracle import brute_force_cumulative, dp_cumulative
from riskhorizon.replay import build_index, sample
from riskhorizon.episodes import Episode, Terminal
from riskhorizon.returns import (
    HorizonConfig,
    InvalidTargetError,
    build_targets,
    lambda_return,
    lambda_weights,
    mc_return,
    n_step_return,
)
from riskhorizon.training import TrainConfig, train


def report(number, name, detail):
    print(f"criterion {number:02d} ({name}): PASS — {detail}")


def spearman(x, y):
    """Rank correlation without ties (ranks are permutations here)."""

    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    rx = np.empty(len(x))
    ry = np.empty(len(y))
    rx[np.argsort(x)] = np.arange(len(x))
    ry[np.argsort(y)] = np.arange(len(y))
    d = rx - ry
    n = len(x)
    return 1.0 - 6.0 * float(d @ d) / (n * (n * n - 1))


# --- trained fixtures ---------------------------------------------------------

CHAIN_SPEC = ChainWorldSpec(
    n_states=4,
    hazard=(0.02, 0.05, 0.1, 0.18),
    transition=(
        (0.6, 0.4, 0.0, 0.0),
        (0.3, 0.4, 0.3, 0.0),
        (0.0, 0.3, 0.4, 0.3),
        (0.0, 0.0, 0.4, 0.6),
    ),
    start_distribution=(0.4, 0.3, 0.2, 0.1),
)
CHAIN_HORIZON = HorizonConfig(delta_t=0.1, n_heads=5, lam=0.8, trunc_n=3)

CORRIDOR_HORIZON = HorizonConfig(delta_t=0.1, n_heads=20, lam=0.8, trunc_n=10)


@pytest.fixture(scope="module")
def chain_run():
    """Budgeted chain-world training run shared by criteria 4 and 6-8."""

    world = ChainWorld(CHAIN_SPEC, max_steps=40)
    episodes, _ = generate_episodes(world, 400, master_seed=2024)
    cfg = TrainConfig(
        horizon=CHAIN_HORIZON,
        loss=LossWeights(c_interval=1.0, c_chain=1.0, p_collision=0.25, p_noncollision=0.025),
        epochs=40,
        samples_per_epoch=2000,
        batch_size=32,
        lr_start=3e-3,
        lr_end=3e-4,
        eval_fraction=0.2,
        master_seed=7,
    )
    est_cfg = EstimatorConfig(
        input_dim=4, n_heads=5, backbone_layers=(32, 32), head_layers=(8, 1),
        activation="tanh", init_seed=7,
    )
    started = time.monotonic()
    result = train(episodes, cfg, estimator_cfg=est_cfg)
    elapsed = time.monotonic() - started
    held = [episodes[j] for j in result.held_out]
    return {
        "estimator": result.state.estimator,
        "table": dp_cumulative(CHAIN_SPEC, CHAIN_HORIZON.n_heads),
        "held": held,
        "elapsed": elapsed,
    }


@pytest.fixture(scope="module")
def corridor_run():
    """Corridor training run feeding the detection-table criterion."""

    world = CorridorWorld(CorridorWorldSpec(), stack_frames=3)
    episodes, _ = generate_episodes(world, 300, master_seed=2025)
    # Short schedule on purpose: collisions here are mostly aleatoric (random
    # obstacle speed changes), so long training flattens near-collision
    # predictions toward the corpus-wide risk level and washes out the
    # near-vs-distant contrast the detection table measures.
    cfg = TrainConfig(
        horizon=CORRIDOR_HORIZON,
        loss=LossWeights(c_interval=1.0, c_chain=1.0, p_collision=0.5, p_noncollision=0.025),
        epochs=15,
        samples_per_epoch=4000,
        batch_size=32,
        lr_start=1e-3,
        lr_end=1e-4,
        eval_fraction=0.2,
        master_seed=3,
    )
    est_cfg = EstimatorConfig(
        input_dim=world.obs_dim, n_heads=CORRIDOR_HORIZON.n_heads,
        backbone_layers=(64, 64), head_layers=(16, 1), activation="tanh", init_seed=3,
    )
    result = train(episodes, cfg, estimator_cfg=est_cfg)
    return {"episodes": episodes, "estimator": result.state.estimator}


# --- criteria -----------------------------------------------------------------


def test_criterion_01_weight_normalization():
    started = time.monotonic()
    checked = 0
    for i in range(1, 65):
        for lam in (0.0, 0.3, 0.8, 1.0):
            for trunc in (1, 5, i):
                w = lambda_weights(i, lam, trunc)
                assert np.all(w >= 0.0), (i, lam, trunc)
                assert abs(w.sum() - 1.0) <= 1e-12, (i, lam, trunc, w.sum())
                checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    report(1, "weight normalization", f"{checked} weight vectors in {elapsed:.3f}s")


def test_criterion_02_return_reductions():
    started = time.monotonic()
    rng = np.random.default_rng(202)
    n_heads = 6
    mc_cfg = HorizonConfig(delta_t=0.1, n_heads=n_heads, lam=1.0, trunc_n=n_heads)
    one_cfg = HorizonConfig(delta_t=0.1, n_heads=n_heads, lam=0.0, trunc_n=n_heads)
    compared = 0
    for _ in range(1000):
        steps = int(rng.integers(1, 10))
        terminal = Terminal.COLLISION if rng.integers(2) else Terminal.TIME_LIMIT
        trace = Episode(observations=np.zeros((steps, 1)), terminal=terminal, seed=0)
        t = int(rng.integers(0, steps))
        i = int(rng.integers(1, n_heads + 1))
        boots = list(rng.uniform(0.0, 1.0, size=i))
        # full weight on the deepest window: the blend must equal the raw
        # fixed-window outcome, errors included
        try:
            expected = mc_return(trace, t, i)
        except InvalidTargetError:
            with pytest.raises(InvalidTargetError):
                lambda_return(trace, t, i, boots, mc_cfg)
        else:
            assert lambda_return(trace, t, i, boots, mc_cfg) == expected
        # zero decay: everything rides on the one-step window
        try:
            expected = n_step_return(trace, t, 1, i, bootstrap=boots[0] if i > 1 else None)
        except InvalidTargetError:
            with pytest.raises(InvalidTargetError):
                lambda_return(trace, t, i, boots, one_cfg)
        else:
            assert lambda_return(trace, t, i, boots, one_cfg) == expected
        compared += 1
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    report(2, "return reductions", f"{compared} traces, exact equality, {elapsed:.3f}s")


def test_criterion_03_oracle_consistency():
    started = time.monotonic()
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 6))
        heads = int(rng.integers(1, 7))
        hazard = rng.uniform(0.0, 0.6, size=n)
        transition = rng.uniform(0.05, 1.0, size=(n, n))
        transition /= transition.sum(axis=1, keepdims=True)
        start = rng.uniform(0.05, 1.0, size=n)
        start /= start.sum()
        spec = ChainWorldSpec(
            n_states=n,
            hazard=tuple(hazard),
            transition=tuple(tuple(row) for row in transition),
            start_distribution=tuple(start),
        )
        a = dp_cumulative(spec, heads).probabilities
        b = brute_force_cumulative(spec, heads).probabilities
        worst = max(worst, float(np.abs(a - b).max()))
    elapsed = time.monotonic() - started
    assert worst <= 1e-12
    assert elapsed < 10.0
    report(3, "oracle consistency", f"50 chains, max deviation {worst:.2e}, {elapsed:.1f}s")


def test_criterion_04_chain_convergence(chain_run):
    obs = np.stack(
        [chain_observation(CHAIN_SPEC, s, 1) for s in range(CHAIN_SPEC.n_states)]
    )
    preds = chain_run["estimator"].forward(obs)
    errors = np.abs(preds - chain_run["table"].probabilities[:, 1:])
    assert chain_run["elapsed"] < 300.0
    assert errors.max() < 0.05, f"max |estimate - exact| = {errors.max():.4f}"
    report(
        4, "chain convergence",
        f"max |estimate - exact| {errors.max():.4f} after {chain_run['elapsed']:.0f}s",
    )


def test_criterion_05_gradient_correctness():
    started = time.monotonic()
    rng = np.random.default_rng(505)
    weights = LossWeights(
        c_interval=1.0, c_chain=1.0, p_collision=0.25, p_noncollision=0.025
    )
    checked = 0
    worst = 0.0
    while checked < 20:
        input_dim = int(rng.integers(2, 5))
        n_heads = int(rng.integers(2, 5))
        depth = int(rng.integers(1, 3))
        est = MultiHeadEstimator(
            EstimatorConfig(
                input_dim=input_dim,
                n_heads=n_heads,
                backbone_layers=tuple(int(rng.integers(4, 9)) for _ in range(depth)),
                head_layers=(int(rng.integers(3, 6)), 1),
                activation="tanh" if rng.integers(2) else "relu",
                init_seed=int(rng.integers(1_000_000)),
            )
        )
        batch = int(rng.integers(2, 5))
        features = rng.normal(size=(batch, input_dim))
        targets = rng.uniform(0.0, 1.0, size=(batch, n_heads))
        valid = rng.uniform(size=(batch, n_heads)) < 0.8
        valid[np.arange(batch), rng.integers(0, n_heads, size=batch)] = True
        collision = rng.integers(0, 2, size=batch).astype(bool)

        # hinge kinks are non-differentiable; resample any instance whose
        # predictions sit on one
        preds = est.forward(features)
        kink = min(
            float(np.abs(preds).min()),
            float(np.abs(preds - 1.0).min()),
            float(np.abs(np.diff(preds, axis=1)).min()) if n_heads > 1 else np.inf,
        )
        if kink < 1e-4:
            continue

        _, _, grads = batch_loss_and_grad(est, features, targets, valid, collision, weights)
        analytic = np.concatenate([grads[k].ravel() for k in est.params])
        flat = est.get_flat()
        fd = np.empty_like(flat)
        h = 1e-6
        for j in range(flat.size):
            probe = flat.copy()
            probe[j] = flat[j] + h
            est.set_flat(probe)
            up, _, _ = batch_loss_and_grad(
                est, features, targets, valid, collision, weights, want_grad=False
            )
            probe[j] = flat[j] - h
            est.set_flat(probe)
            down, _, _ = batch_loss_and_grad(
                est, features, targets, valid, collision, weights, want_grad=False
            )
            fd[j] = (up - down) / (2 * h)
        est.set_flat(flat)
        rel = float(np.linalg.norm(fd - analytic) / max(np.linalg.norm(fd), 1e-12))
        worst = max(worst, rel)
        assert rel < 1e-4, f"instance {checked}: relative error {rel:.2e}"
        checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    report(
        5, "gradient correctness",
        f"20 instances, worst relative error {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_06_pessimism_convergence(chain_run):
    rep = evaluate(chain_run["held"], chain_run["estimator"], CHAIN_HORIZON)
    assert abs(rep.pes_mean) < 0.05, f"held-out mean signed error {rep.pes_mean:+.4f}"
    report(6, "pessimism convergence", f"held-out mean signed error {rep.pes_mean:+.4f}")


def test_criterion_07_per_head_difficulty_trend(chain_run):
    rep = evaluate(chain_run["held"], chain_run["estimator"], CHAIN_HORIZON)
    rho = spearman(np.arange(1, CHAIN_HORIZON.n_heads + 1), rep.acc)
    assert rho > 0.6, f"Spearman(head, acc error) = {rho:.2f}"
    report(
        7, "per-head difficulty trend",
        f"Spearman {rho:.2f}, acc errors {np.array2string(rep.acc, precision=3)}",
    )


def test_criterion_08_cdf_validity(chain_run):
    preds = np.concatenate(
        [chain_run["estimator"].forward(ep.observations) for ep in chain_run["held"]]
    )
    violations = float((np.diff(preds, axis=1) < -1e-3).mean())
    outside = float(((preds < -0.01) | (preds > 1.01)).mean())
    assert violations < 0.05, f"adjacent-head violations: {violations:.2%}"
    assert outside < 0.01, f"outputs outside [-0.01, 1.01]: {outside:.2%}"
    report(
        8, "cdf validity",
        f"{violations:.3%} adjacent violations, {outside:.3%} outside [-0.01, 1.01] "
        f"over {preds.shape[0]} states",
    )


def test_criterion_09_stratified_unbiasedness():
    # A fixed 200-entry buffer, half collision-related. The stratified
    # scheme's per-proposal expected gradient (acceptance indicator times
    # importance weight times gradient) must match p_nc times the plain
    # uniform expectation. Hinge weights are zeroed so the comparison is
    # about the sampling scheme, not regularizers.
    spec = ChainWorldSpec(
        n_states=3,
        hazard=(0.05, 0.15, 0.3),
        transition=((0.6, 0.4, 0.0), (0.3, 0.4, 0.3), (0.0, 0.5, 0.5)),
        start_distribution=(0.5, 0.3, 0.2),
    )
    horizon = HorizonConfig(delta_t=0.1, n_heads=3, lam=0.8, trunc_n=2)
    p_c, p_nc = 0.25, 0.025
    world = ChainWorld(spec, max_steps=12)
    episodes, _ = generate_episodes(world, 60, master_seed=90)
    est = MultiHeadEstimator(
        EstimatorConfig(input_dim=3, n_heads=3, backbone_layers=(6,),
                        head_layers=(4, 1), activation="tanh", init_seed=11)
    )
    full = build_index(episodes, horizon)
    steps = np.array([episodes[e].steps for e in full.episode])
    alive = full.collision_related | (full.timestep <= steps - 2)
    keep = np.zeros(len(full), dtype=bool)
    keep[np.flatnonzero(alive & full.collision_related)[:100]] = True
    keep[np.flatnonzero(alive & ~full.collision_related)[:100]] = True
    buffer = full[keep]
    assert len(buffer) == 200 and buffer.collision_related.sum() == 100

    weights = LossWeights(c_interval=0.0, c_chain=0.0, p_collision=p_c, p_noncollision=p_nc)
    targets = {e: build_targets(episodes[e], est, horizon) for e in set(buffer.episode.tolist())}

    def grad_vec(e, t, as_collision):
        tm = targets[e]
        _, _, grads = batch_loss_and_grad(
            est,
            episodes[e].observations[t][None, :],
            tm.values[t][None, :],
            tm.valid[t][None, :],
            np.array([as_collision]),
            weights,
        )
        return np.concatenate([grads[k].ravel() for k in est.params])

    slot_of = {}
    plain = np.zeros((200, est.n_params))
    weighted = np.zeros((200, est.n_params))
    for k in range(200):
        e, t = int(buffer.episode[k]), int(buffer.timestep[k])
        slot_of[(e, t)] = k
        plain[k] = grad_vec(e, t, False)
        weighted[k] = grad_vec(e, t, bool(buffer.collision_related[k]))

    expected = p_nc * plain.mean(axis=0)
    accept_rate = (100 * p_c + 100 * p_nc) / 200.0
    rng = np.random.default_rng(17)
    counts = np.zeros(200)
    drawn = 0
    while drawn < 100_000:
        for ref in sample(buffer, 1024, rng, p_c, p_nc):
            counts[slot_of[(ref.episode, ref.timestep)]] += 1
        drawn += 1024
    stratified = accept_rate * (counts @ weighted) / drawn
    rel = float(np.linalg.norm(stratified - expected) / np.linalg.norm(expected))
    assert rel < 0.02, f"relative error {rel:.4f} over {drawn} draws"
    report(9, "stratified unbiasedness", f"relative error {rel:.4f} over {drawn} draws")


def test_criterion_10_detection_table(corridor_run):
    table = detection_rate(
        corridor_run["episodes"],
        corridor_run["estimator"],
        CORRIDOR_HORIZON,
        DEFAULT_THRESHOLDS,
        DEFAULT_INTERVALS,
    )
    assert table.episode_count > 0
    assert np.all(np.diff(table.rates, axis=0) <= 0), "rates increase with the threshold"
    near = table.rates[:, :1]
    distant = table.rates[:, 1:]
    assert np.all(near >= distant), (
        f"near interval fails to dominate:\n{np.array2string(table.rates, precision=3)}"
    )
    report(
        10, "detection table",
        f"{table.episode_count} collision episodes; near-interval rates "
        f"{np.array2string(table.rates[:, 0], precision=3)} dominate all distant intervals",
    )


def test_criterion_11_determinism(tmp_path):
    config = {
        "version": 1,
        "master_seed": 13,
        "env": {
            "kind": "chain",
            "n_states": 4,
            "hazard": [0.02, 0.05, 0.1, 0.18],
            "transition": [
                [0.6, 0.4, 0.0, 0.0],
                [0.3, 0.4, 0.3, 0.0],
                [0.0, 0.3, 0.4, 0.3],
                [0.0, 0.0, 0.4, 0.6],
            ],
            "start_distribution": [0.4, 0.3, 0.2, 0.1],
            "max_steps": 40,
        },
        "gen": {"count": 40},
        "horizon": {"delta_t": 0.1, "n_heads": 3, "lambda": 0.8, "trunc_n": 2},
        "estimator": {"backbone_layers": [8], "head_layers": [4, 1]},
        "loss": {"c_interval": 1.0, "c_chain": 1.0, "p_collision": 0.25,
                 "p_noncollision": 0.025},
        "train": {"epochs": 3, "samples_per_epoch": 300, "batch_size": 16,
                  "lr_start": 0.003, "lr_end": 0.0003, "eval_fraction": 0.2},
        "eval": {"thresholds": [0.05, 0.1], "intervals": [[0.0, 0.2], [0.2, 0.4]]},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))

    def run_pipeline(root):
        root.mkdir()
        for step in (
            ["gen", "--config", cfg_path, "--out", root / "eps.jsonl"],
            ["train", "--config", cfg_path, "--episodes", root / "eps.jsonl",
             "--out", root / "run"],
            ["eval", "--checkpoint", root / "run" / "checkpoint.json",
             "--episodes", root / "eps.jsonl", "--out", root / "reports",
             "--config", cfg_path],
        ):
            proc = subprocess.run(
                [sys.executable, "-m", "riskhorizon", *map(str, step)],
                capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr

    run_pipeline(tmp_path / "first")
    run_pipeline(tmp_path / "second")
    pairs = [
        ("run/metrics.tsv", "metric log"),
        ("reports/head_metrics.tsv", "head metrics"),
        ("reports/summary.json", "summary"),
    ]
    for rel, label in pairs:
        a = (tmp_path / "first" / rel).read_bytes()
        b = (tmp_path / "second" / rel).read_bytes()
        assert a == b, f"{label} differs between identically seeded runs"
    report(11, "determinism", "gen/train/eval twice: metric logs byte-identical")
