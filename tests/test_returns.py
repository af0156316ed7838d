"""Learning-target arithmetic: frozen weight/return values, reduction
identities, boundary masking, and scalar-vs-vectorized agreement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import oracle_at
from returns_reference import InvalidTargetError, lambda_return, mc_return, n_step_return
from riskhorizon.envs import ChainWorld
from riskhorizon.episodes import Episode, Terminal
from riskhorizon.oracle import dp_cumulative
from riskhorizon.returns import (
    HorizonConfig,
    corpus_rows,
    lambda_targets,
    lambda_weights,
    targets_from_estimates,
    window_collides,
    window_known,
)


def trace(rewards, terminal=None):
    """The episode whose binary collision rewards are `rewards`.

    The rewards must be 0 but for a final 1, which makes it a collision
    episode; observations play no part in the scalar returns.
    """

    rewards = list(rewards)
    collides = rewards[-1] == 1
    assert rewards[:-1] == [0] * (len(rewards) - 1) and rewards[-1] in (0, 1)
    if terminal is None:
        terminal = Terminal.COLLISION if collides else Terminal.TIME_LIMIT
    assert (terminal is Terminal.COLLISION) == collides
    return Episode(observations=np.zeros((len(rewards), 1)), terminal=terminal, seed=0)


@st.composite
def random_traces(draw):
    steps = draw(st.integers(min_value=1, max_value=12))
    collides = draw(st.booleans())
    rewards = [0] * steps
    if collides:
        rewards[-1] = 1
    return trace(rewards)


# --- lambda_weights ---------------------------------------------------------


def test_weights_frozen_example():
    w = lambda_weights(3, 0.8, 3)
    assert w == pytest.approx([0.2, 0.16, 0.64], abs=1e-15)
    assert lambda_weights(3, 0.8, 10) == pytest.approx([0.2, 0.16, 0.64], abs=1e-15)


def test_weights_single_depth():
    for lam in (0.0, 0.3, 1.0):
        assert lambda_weights(1, lam, 5).tolist() == [1.0]


def test_weights_lambda_zero_collapses():
    assert lambda_weights(5, 0.0, 5).tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]


def test_weights_lambda_one_all_on_deepest():
    w = lambda_weights(4, 1.0, 4)
    assert w.tolist() == [0.0, 0.0, 0.0, 1.0]
    w = lambda_weights(8, 1.0, 3)
    assert w.tolist() == [0.0, 0.0, 1.0]


def test_weights_normalized_over_grid():
    # The full sweep demanded of the weight construction.
    for i in range(1, 65):
        for lam in (0.0, 0.3, 0.8, 1.0):
            for trunc in (1, 5, i):
                w = lambda_weights(i, lam, trunc)
                assert len(w) == min(i, trunc)
                assert w.min() >= 0.0
                assert abs(w.sum() - 1.0) <= 1e-12


# --- mc_return --------------------------------------------------------------


def test_mc_collision_inside_window():
    assert mc_return(trace([0, 0, 1]), 0, 5) == 1.0


def test_mc_truncated_window_is_invalid():
    tr = trace([0] * 20, Terminal.TIME_LIMIT)
    with pytest.raises(InvalidTargetError):
        mc_return(tr, 0, 20)


def test_mc_collision_outside_window():
    assert mc_return(trace([0, 0, 1]), 0, 2) == 0.0


def test_mc_blocked_end_is_truncation_too():
    tr = trace([0, 0, 0], Terminal.BLOCKED)
    assert mc_return(tr, 0, 2) == 0.0
    with pytest.raises(InvalidTargetError):
        mc_return(tr, 0, 3)


@given(random_traces(), st.data())
@settings(max_examples=200, deadline=None)
def test_mc_monotone_in_window_length(tr, data):
    t = data.draw(st.integers(0, tr.steps - 1))
    limit = tr.steps - t if not tr.ends_in_collision else 8
    i = data.draw(st.integers(1, max(limit - 1, 1)))
    j = data.draw(st.integers(i, max(limit - 1, i)))
    try:
        a, b = mc_return(tr, t, i), mc_return(tr, t, j)
    except InvalidTargetError:
        return
    assert a <= b


# --- n_step_return ----------------------------------------------------------


@given(st.lists(random_traces(), min_size=1, max_size=5), st.integers(1, 16))
@settings(max_examples=200, deadline=None)
def test_the_window_rule_is_where_mc_return_is_defined(traces, length):
    # Over the episodes laid end to end: a window is known exactly where the
    # paper's Monte Carlo return is defined, and collides where it is 1.
    last_rows, collided = corpus_rows(traces)
    rows = np.arange(len(last_rows))
    known = window_known(rows, last_rows, collided, length)
    collides = window_collides(rows, last_rows, collided, length)
    row = 0
    for tr in traces:
        for t in range(tr.steps):
            try:
                outcome = mc_return(tr, t, length)
            except InvalidTargetError:
                assert not known[row]
            else:
                assert known[row]
                assert collides[row] == (outcome == 1.0)
            row += 1
    assert row == len(rows)


def test_n_step_zero_rewards_pass_bootstrap_through():
    tr = trace([0, 0, 0])
    assert n_step_return(tr, 0, 2, 5, bootstrap=0.3) == pytest.approx(0.3)


def test_n_step_bootstrap_clamped():
    tr = trace([0, 0, 0])
    assert n_step_return(tr, 0, 1, 3, bootstrap=1.4) == 1.0
    assert n_step_return(tr, 0, 1, 3, bootstrap=-0.2) == 0.0


def test_n_step_immediate_collision_dominates():
    assert n_step_return(trace([1]), 0, 1, 4) == 1.0


def test_n_step_full_depth_is_mc():
    tr = trace([0, 0, 0, 0])
    assert n_step_return(tr, 0, 3, 3) == mc_return(tr, 0, 3) == 0.0


def test_n_step_landing_past_end_invalid():
    tr = trace([0, 0, 0])
    with pytest.raises(InvalidTargetError):
        n_step_return(tr, 1, 2, 4, bootstrap=0.5)


# --- lambda_return ----------------------------------------------------------


def cfg(n_heads=5, lam=0.8, trunc_n=None, delta_t=0.1):
    return HorizonConfig(
        delta_t=delta_t, n_heads=n_heads, lam=lam, trunc_n=trunc_n or n_heads
    )


def test_lambda_head_one_is_raw_outcome():
    assert lambda_return(trace([1]), 0, 1, [], cfg()) == 1.0
    assert lambda_return(trace([0, 0]), 0, 1, [], cfg()) == 0.0


def test_lambda_two_depth_frozen_value():
    # Depth 1 bootstraps at 0.5 with weight 0.2; depth 2 observes no
    # collision: 0.2 * 0.5 + 0.8 * 0.
    tr = trace([0, 0, 0])
    got = lambda_return(tr, 0, 2, [0.5, None], cfg(lam=0.8))
    assert got == pytest.approx(0.1, abs=1e-15)


def test_lambda_collision_episode_hits_one():
    tr = trace([0, 1])
    got = lambda_return(tr, 0, 2, [0.3, None], cfg(lam=0.8))
    # Depth 1: no collision at step 1, bootstrap 0.3; depth 2: collision.
    assert got == pytest.approx(0.2 * 0.3 + 0.8 * 1.0)


def test_lambda_one_equals_mc_exactly():
    rng = np.random.default_rng(42)
    horizon = cfg(n_heads=6, lam=1.0)
    for _ in range(1000):
        steps = int(rng.integers(1, 10))
        collides = bool(rng.integers(2))
        rewards = [0] * steps
        if collides:
            rewards[-1] = 1
        tr = trace(rewards)
        t = int(rng.integers(0, steps))
        i = int(rng.integers(1, 7))
        boots = list(rng.uniform(-0.5, 1.5, size=i))
        try:
            expected = mc_return(tr, t, i)
        except InvalidTargetError:
            with pytest.raises(InvalidTargetError):
                lambda_return(tr, t, i, boots, horizon)
            continue
        assert lambda_return(tr, t, i, boots, horizon) == expected


def test_lambda_zero_equals_one_step_exactly():
    rng = np.random.default_rng(43)
    horizon = cfg(n_heads=6, lam=0.0)
    for _ in range(1000):
        steps = int(rng.integers(1, 10))
        collides = bool(rng.integers(2))
        rewards = [0] * steps
        if collides:
            rewards[-1] = 1
        tr = trace(rewards)
        t = int(rng.integers(0, steps))
        i = int(rng.integers(1, 7))
        boots = list(rng.uniform(-0.5, 1.5, size=i))
        try:
            expected = n_step_return(tr, t, 1, i, bootstrap=boots[0] if i > 1 else None)
        except InvalidTargetError:
            with pytest.raises(InvalidTargetError):
                lambda_return(tr, t, i, boots, horizon)
            continue
        assert lambda_return(tr, t, i, boots, horizon) == expected


def test_lambda_result_in_unit_interval():
    rng = np.random.default_rng(44)
    horizon = cfg(n_heads=5, lam=0.6, trunc_n=3)
    for _ in range(500):
        steps = int(rng.integers(2, 9))
        rewards = [0] * steps
        if rng.integers(2):
            rewards[-1] = 1
        tr = trace(rewards)
        t = int(rng.integers(0, steps))
        i = int(rng.integers(1, 6))
        boots = list(rng.uniform(-2.0, 3.0, size=i))
        try:
            got = lambda_return(tr, t, i, boots, horizon)
        except InvalidTargetError:
            continue
        assert 0.0 <= got <= 1.0


def test_all_collision_blend_does_not_overshoot_one():
    # Head 9 at lam=0.8 is the order of summation whose weights round to one
    # ulp above 1; anchored right before the collision every component is 1,
    # so an unguarded blend returns 1 + ulp.
    horizon = cfg(n_heads=12, lam=0.8, trunc_n=10)
    tr = trace([0] * 19 + [1])
    got = lambda_return(tr, 19, 9, [0.0] * 9, horizon)
    assert got == 1.0
    estimates = np.zeros((20, 12))
    matrix = targets_from_estimates(tr, estimates, horizon)
    assert matrix.values.max() == 1.0
    assert matrix.values.min() >= 0.0


# --- targets_from_estimates -------------------------------------------------


def matrix_for(tr, estimates, horizon):
    return targets_from_estimates(tr, np.asarray(estimates, dtype=float), horizon)


def test_targets_one_step_collision_episode():
    horizon = cfg(n_heads=4, lam=0.8)
    tm = matrix_for(trace([1]), np.zeros((1, 4)), horizon)
    assert tm.valid.all()
    assert tm.values == pytest.approx(np.ones((1, 4)))


def test_targets_zero_estimator_zero_episode():
    horizon = cfg(n_heads=3, lam=0.8)
    tm = matrix_for(trace([0] * 10), np.zeros((10, 3)), horizon)
    assert tm.values[tm.valid] == pytest.approx(np.zeros(int(tm.valid.sum())))
    assert tm.valid.any()


def test_targets_match_scalar_reference():
    rng = np.random.default_rng(7)
    for _ in range(60):
        steps = int(rng.integers(1, 12))
        collides = bool(rng.integers(2))
        rewards = [0] * steps
        if collides:
            rewards[-1] = 1
        tr = trace(rewards)
        n_heads = int(rng.integers(1, 6))
        horizon = cfg(
            n_heads=n_heads,
            lam=float(rng.choice([0.0, 0.3, 0.8, 1.0])),
            trunc_n=int(rng.integers(1, n_heads + 1)),
        )
        est = rng.uniform(-0.5, 1.5, size=(steps, n_heads))
        tm = matrix_for(tr, est, horizon)
        for t in range(steps):
            for i in range(1, n_heads + 1):
                # Scalar path: bootstraps for depth n live at state t+n and
                # are the (i-n)-th head outputs there, when that state exists.
                boots = []
                for n in range(1, i):
                    s = t + n
                    boots.append(est[s, i - n - 1] if s < steps else None)
                boots.append(None)
                try:
                    want = lambda_return(tr, t, i, boots, horizon)
                except InvalidTargetError:
                    assert not tm.valid[t, i - 1]
                    continue
                assert tm.valid[t, i - 1]
                assert tm.values[t, i - 1] == want


def test_packed_snapshot_rows_match_per_episode_targets():
    # Training packs every episode's clamped estimates into one snapshot and
    # builds targets for sampled rows only; no window may read across an
    # episode boundary, and each row must equal its episode's own matrix.
    rng = np.random.default_rng(11)
    for lam, trunc_n in ((0.8, 3), (0.0, 5), (1.0, 2), (0.5, 1)):
        horizon = cfg(n_heads=5, lam=lam, trunc_n=trunc_n)
        traces = [trace([0] * (s - 1) + [int(rng.integers(2))])
                  for s in rng.integers(1, 15, size=12)]
        estimates = [rng.uniform(-0.5, 1.5, size=(tr.steps, 5)) for tr in traces]
        snapshot = np.clip(np.concatenate(estimates), 0.0, 1.0)
        steps = np.array([tr.steps for tr in traces])
        last = np.cumsum(steps) - 1
        first = last - steps + 1
        ep = rng.integers(0, len(traces), size=60)
        t = (rng.uniform(size=60) * steps[ep]).astype(np.int64)
        collided = np.array([traces[e].ends_in_collision for e in ep])
        got = lambda_targets(snapshot, first[ep] + t, last[ep], collided, horizon)
        for k, (e, s) in enumerate(zip(ep, t)):
            want = targets_from_estimates(traces[e], estimates[e], horizon)
            assert np.array_equal(got.values[k], want.values[s])
            assert np.array_equal(got.valid[k], want.valid[s])


@settings(max_examples=80, deadline=None)
@given(
    shapes=st.lists(st.tuples(st.integers(1, 15), st.booleans()), min_size=1, max_size=6),
    n_heads=st.integers(1, 6),
    lam=st.sampled_from([0.0, 0.3, 0.8, 1.0]),
    data=st.data(),
)
def test_targets_are_row_wise(shapes, n_heads, lam, data):
    # Training builds a whole epoch's targets at once and slices them per
    # batch: the targets of a concatenation of anchors must be the
    # concatenated targets of its parts, bit for bit.
    horizon = cfg(n_heads=n_heads, lam=lam, trunc_n=data.draw(st.integers(1, n_heads)))
    episodes = [trace([0] * (steps - 1) + [int(collides)]) for steps, collides in shapes]
    last_rows, collided = corpus_rows(episodes)
    n_rows = len(last_rows)
    seed = data.draw(st.integers(0, 2**32 - 1))
    snapshot = np.random.default_rng(seed).uniform(0.0, 1.0, size=(n_rows, n_heads))
    rows = np.array(data.draw(st.lists(st.integers(0, n_rows - 1), min_size=1, max_size=40)))
    split = data.draw(st.integers(0, len(rows)))

    def targets(anchors):
        return lambda_targets(snapshot, anchors, last_rows[anchors], collided[anchors], horizon)

    whole, head, tail = targets(rows), targets(rows[:split]), targets(rows[split:])
    assert whole.values.tobytes() == np.concatenate([head.values, tail.values]).tobytes()
    assert whole.valid.tobytes() == np.concatenate([head.valid, tail.valid]).tobytes()


def test_targets_validity_windows():
    horizon = cfg(n_heads=3, lam=0.8)
    steps = 6
    tm = matrix_for(trace([0] * steps), np.zeros((steps, 3)), horizon)
    # Head i needs the depth-i landing state recorded: t <= steps - 1 - i.
    for i in range(1, 4):
        expected = np.arange(steps) <= steps - 1 - i
        assert tm.valid[:, i - 1].tolist() == expected.tolist()


def test_targets_collision_episode_fully_valid():
    horizon = cfg(n_heads=4, lam=0.5)
    steps = 5
    tm = matrix_for(trace([0] * (steps - 1) + [1]), np.zeros((steps, 4)), horizon)
    assert tm.valid.all()


def test_targets_lambda_zero_needs_only_one_step():
    horizon = cfg(n_heads=4, lam=0.0)
    steps = 5
    tm = matrix_for(trace([0] * steps), np.full((steps, 4), 0.25), horizon)
    for i in range(1, 5):
        deepest = 1 if i > 1 else 1
        expected = np.arange(steps) <= steps - 1 - deepest
        assert tm.valid[:, i - 1].tolist() == expected.tolist()


def test_targets_oracle_fixed_point_on_deterministic_chain():
    # On a deterministic chain the Bellman blend of exact values is exact.
    world = ChainWorld(
        n_states=3,
        hazard=(0.0, 0.0, 1.0),
        transition=((0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (0.0, 0.0, 1.0)),
        start_distribution=(1.0, 0.0, 0.0),
    )
    horizon = cfg(n_heads=3, lam=0.8, trunc_n=2)
    table = dp_cumulative(world, 3)
    # Walk 0 -> 1 -> 2, colliding when stepping out of state 2.
    states = [0, 1, 2]
    tr = trace([0, 0, 1])
    estimates = np.stack([table.probabilities[s, 1:] for s in states])
    tm = matrix_for(tr, estimates, horizon)
    for t, s in enumerate(states):
        for i in range(1, 4):
            assert tm.valid[t, i - 1]
            assert tm.values[t, i - 1] == pytest.approx(oracle_at(table, s, i), abs=1e-10)


def test_targets_oracle_fixed_point_in_expectation():
    # Stochastic chain: averaged over many rollouts, targets built from
    # oracle estimates are unbiased for the oracle values.
    world = ChainWorld(
        n_states=2,
        hazard=(0.3, 0.05),
        transition=((0.4, 0.6), (0.5, 0.5)),
        start_distribution=(1.0, 0.0),
    )
    horizon = cfg(n_heads=2, lam=0.8, trunc_n=2)
    table = dp_cumulative(world, 2)
    rng = np.random.default_rng(99)
    total = np.zeros(2)
    count = 0
    for _ in range(4000):
        # Roll from state 0 for up to 12 steps.
        s, states, rewards = 0, [], []
        for _ in range(12):
            states.append(s)
            if rng.random() < world.hazard[s]:
                rewards.append(1)
                break
            rewards.append(0)
            s = int(rng.choice(2, p=np.asarray(world.transition[s])))
        tr = trace(rewards)
        est = np.stack([table.probabilities[q, 1:] for q in states])
        tm = matrix_for(tr, est, horizon)
        if tm.valid[0, 1]:
            total += tm.values[0]
            count += 1
    mean = total / count
    assert mean[1] == pytest.approx(oracle_at(table, 0, 2), abs=0.02)


def test_horizon_config_validation():
    with pytest.raises(ValueError):
        HorizonConfig(delta_t=0.1, n_heads=0, lam=0.5, trunc_n=1)
    with pytest.raises(ValueError):
        HorizonConfig(delta_t=0.1, n_heads=4, lam=1.5, trunc_n=2)
    with pytest.raises(ValueError):
        HorizonConfig(delta_t=0.1, n_heads=4, lam=0.5, trunc_n=5)
    with pytest.raises(ValueError):
        HorizonConfig(delta_t=-0.1, n_heads=4, lam=0.5, trunc_n=2)
