"""Evaluation metrics: residual statistics against an exact yardstick,
characteristic curves, detection tables, and the report files."""

import json
from dataclasses import replace
from decimal import Decimal

import numpy as np
import pytest

from helpers import oracle_at
from returns_reference import mc_return
from riskhorizon.envs import ChainWorld, generate_episodes
from riskhorizon import evaluation
from riskhorizon.episodes import Episode, Terminal
from riskhorizon.evaluation import (
    CharacteristicCurves,
    DetectionGrid,
    DetectionTable,
    EvalReport,
    collision_characteristic,
    detection_rate,
    evaluate,
    oracle_errors,
    write_characteristic,
    write_detection,
    write_head_metrics,
    write_oracle_errors,
    write_summary,
)
from riskhorizon.network import EstimatorConfig, MultiHeadEstimator
from riskhorizon.oracle import dp_cumulative
from riskhorizon.returns import HorizonConfig

# Hazards high enough that survival past 40 steps is ~1e-9: effectively every
# episode collides, so no window is conditioned away and the mean squared
# residual of an exact estimator must converge to mean p(1-p).
HEAVY = ChainWorld(
    n_states=2,
    hazard=(0.4, 0.6),
    transition=((0.5, 0.5), (0.4, 0.6)),
    start_distribution=(0.5, 0.5),
    max_steps=40,
)

SAFE = ChainWorld(
    n_states=2,
    hazard=(0.0, 0.0),
    transition=((0.5, 0.5), (0.4, 0.6)),
    start_distribution=(0.5, 0.5),
    max_steps=12,
)

CERTAIN = ChainWorld(
    n_states=1,
    hazard=(1.0,),
    transition=((1.0,),),
    start_distribution=(1.0,),
    max_steps=12,
)


def cfg(n_heads, delta_t=0.1):
    return HorizonConfig(delta_t=delta_t, n_heads=n_heads, lam=0.8, trunc_n=n_heads)


class TableEstimator:
    """Reads the exact cumulative table through one-hot chain observations."""

    def __init__(self, table):
        self.table = table

    def forward(self, observations):
        states = np.argmax(np.atleast_2d(observations), axis=1)
        return self.table.probabilities[states, 1:]


class ConstantEstimator:
    def __init__(self, value, n_heads):
        self.value = float(value)
        self.n_heads = n_heads

    def forward(self, observations):
        rows = np.atleast_2d(observations).shape[0]
        return np.full((rows, self.n_heads), self.value)


class FeatureEstimator:
    """Every head echoes observation feature 0; test values ride along in it."""

    def __init__(self, n_heads):
        self.n_heads = n_heads

    def forward(self, observations):
        col = np.atleast_2d(observations)[:, :1]
        return np.repeat(col, self.n_heads, axis=1)


def episode(steps, collision, feature=None, seed=0):
    terminal = Terminal.COLLISION if collision else Terminal.TIME_LIMIT
    obs = np.zeros((steps, 2))
    if feature is not None:
        obs[:, 0] = feature
    return Episode(observations=obs, terminal=terminal, seed=seed)


# --- residual statistics ----------------------------------------------------


def test_exact_estimator_error_is_the_irreducible_variance():
    # With the true conditional probabilities plugged in, the signed residual
    # averages to zero and the squared one to the Bernoulli variance p(1-p),
    # window by window. Aggregate both from the table independently.
    n_heads = 3
    table = dp_cumulative(HEAVY, n_heads)
    world = HEAVY
    episodes, _ = generate_episodes(world, 4000, master_seed=101)
    report = evaluate(episodes, TableEstimator(table), cfg(n_heads))

    for i in range(1, n_heads + 1):
        variance_sum = 0.0
        windows = 0
        for ep in episodes:
            states = np.argmax(ep.observations, axis=1)
            if ep.terminal is Terminal.COLLISION:
                valid_until = ep.steps
            else:
                valid_until = ep.steps - i
            for t in range(valid_until):
                p = oracle_at(table, states[t], i)
                variance_sum += p * (1.0 - p)
                windows += 1
        assert report.counts[i - 1] == windows
        assert report.acc[i - 1] == pytest.approx(variance_sum / windows, abs=0.02)
        assert abs(report.pes[i - 1]) < 0.02


def test_constant_one_on_collision_free_corpus_is_fully_pessimistic():
    world = SAFE
    episodes, summary = generate_episodes(world, 30, master_seed=5)
    assert summary.collisions == 0
    report = evaluate(episodes, ConstantEstimator(1.0, 4), cfg(4))
    assert np.all(report.pes == -1.0)
    assert np.all(report.acc == 1.0)


def test_constant_zero_on_always_colliding_corpus_is_fully_optimistic():
    world = CERTAIN
    episodes, summary = generate_episodes(world, 30, master_seed=5)
    assert summary.collisions == 30
    report = evaluate(episodes, ConstantEstimator(0.0, 4), cfg(4))
    assert np.all(report.pes == 1.0)
    assert np.all(report.acc == 1.0)


def test_constant_zero_on_collision_free_corpus_is_exact():
    world = SAFE
    episodes, _ = generate_episodes(world, 30, master_seed=5)
    report = evaluate(episodes, ConstantEstimator(0.0, 4), cfg(4))
    assert np.all(report.acc == 0.0)
    assert np.all(report.pes == 0.0)


def test_squared_error_dominates_squared_signed_error():
    world = HEAVY
    episodes, _ = generate_episodes(world, 300, master_seed=17)
    report = evaluate(episodes, ConstantEstimator(0.3, 3), cfg(3))
    present = report.counts > 0
    assert np.all(report.acc[present] >= report.pes[present] ** 2 - 1e-12)


def test_evaluate_is_order_invariant():
    world = HEAVY
    episodes, _ = generate_episodes(world, 100, master_seed=23)
    table = dp_cumulative(HEAVY, 3)
    a = evaluate(episodes, TableEstimator(table), cfg(3))
    b = evaluate(list(reversed(episodes)), TableEstimator(table), cfg(3))
    np.testing.assert_allclose(a.acc, b.acc, rtol=1e-12)
    np.testing.assert_allclose(a.pes, b.pes, rtol=1e-12)
    assert np.array_equal(a.counts, b.counts)


def test_window_counts_exclude_truncated_tails():
    # A 6-step truncation contributes windows t <= 5-i per head; a 3-step
    # collision contributes every timestep; a 2-step truncation has no head-2
    # window at all.
    episodes = [episode(6, False), episode(3, True), episode(2, False)]
    report = evaluate(episodes, ConstantEstimator(0.5, 2), cfg(2))
    assert report.counts.tolist() == [5 + 3 + 1, 4 + 3 + 0]


def test_heads_without_windows_read_nan():
    report = evaluate([episode(3, False)], ConstantEstimator(0.5, 5), cfg(5))
    assert report.counts.tolist() == [2, 1, 0, 0, 0]
    assert np.all(np.isnan(report.acc[2:]))
    assert np.all(np.isnan(report.pes[2:]))
    # aggregate means only average the populated heads
    assert report.pes_mean == pytest.approx(-0.5)
    assert report.acc_mean == pytest.approx(0.25)


def test_evaluate_rejects_empty_corpus():
    with pytest.raises(ValueError):
        evaluate([], ConstantEstimator(0.5, 2), cfg(2))


def test_report_acc_and_pes_match_a_per_window_loop():
    # Mixed corpus: collisions plus truncations at the step limit.
    world = replace(HEAVY, max_steps=3)
    episodes, _ = generate_episodes(world, 50, master_seed=31)
    assert {ep.terminal for ep in episodes} == {Terminal.COLLISION, Terminal.TIME_LIMIT}
    est = ConstantEstimator(0.4, 3)
    report = evaluate(episodes, est, cfg(3))
    sq, signed, counts = np.zeros(3), np.zeros(3), np.zeros(3)
    for ep in episodes:
        collided = ep.terminal is Terminal.COLLISION
        for i in range(1, 4):
            for t in range(ep.steps):
                if not collided and t + i > ep.steps - 1:
                    continue  # the window reaches past the recorded steps
                resid = float(collided and t + i >= ep.steps) - 0.4
                sq[i - 1] += resid**2
                signed[i - 1] += resid
                counts[i - 1] += 1
    assert report.counts.tolist() == counts.tolist()
    np.testing.assert_allclose(report.acc, sq / counts, rtol=1e-12)
    np.testing.assert_allclose(report.pes, signed / counts, rtol=1e-12)


# --- grouped forwards against per-episode loops ------------------------------
# `evaluate` forwards groups of whole episodes, and the other reports read the
# final-head column it keeps. These loops forward one episode at a time and
# read each statistic per episode and per head.


def reference_evaluate(episodes, estimator, horizon):
    n = horizon.n_heads
    sq, signed, counts = np.zeros(n), np.zeros(n), np.zeros(n, dtype=np.int64)
    for ep in episodes:
        preds = estimator.forward(ep.observations)
        for i in range(n):
            for t in range(ep.steps):
                if not ep.ends_in_collision and t + i + 1 > ep.steps - 1:
                    break
                resid = mc_return(ep, t, i + 1) - preds[t, i]
                sq[i] += resid**2
                signed[i] += resid
                counts[i] += 1
    return sq / counts, signed / counts, counts


def reference_characteristic(episodes, estimator, horizon):
    n = horizon.n_heads
    rows = [estimator.forward(ep.observations[ep.steps - n:])[:, n - 1]
            for ep in episodes if ep.ends_in_collision and ep.steps >= n]
    return np.array(rows).reshape(-1, n)


def reference_peaks(episodes, estimator, horizon, intervals):
    """Each collision episode's peak final-head estimate per interval, -inf
    where no step of it lies inside. Times are the decimals they are written
    as, so three steps of 0.1 s are 0.3 s."""

    delta_t = Decimal(repr(horizon.delta_t))
    bounds = [(Decimal(repr(lo)), Decimal(repr(hi))) for lo, hi in intervals]
    peaks = []
    for ep in episodes:
        if not ep.ends_in_collision:
            continue
        final = estimator.forward(ep.observations)[:, horizon.n_heads - 1]
        ttc = [(ep.steps - t) * delta_t for t in range(ep.steps)]
        inside = [np.array([lo < time <= hi for time in ttc]) for lo, hi in bounds]
        peaks.append([final[m].max() if m.any() else -np.inf for m in inside])
    return np.array(peaks).reshape(-1, len(intervals))


def reference_rates(peaks, thresholds):
    """Detection rates from `reference_peaks`, each over the collision
    episodes with a step inside its interval: NaN where there is none."""

    reached = np.isfinite(peaks).sum(axis=0)
    return np.stack([np.where(reached > 0, (peaks > theta).sum(axis=0) / np.maximum(reached, 1),
                              np.nan)
                     for theta in thresholds])


def final_head_of(episodes, estimator):
    """The final head's output at every row, episode by episode."""

    return np.concatenate([estimator.forward(ep.observations)[:, -1] for ep in episodes])


@pytest.fixture(scope="module")
def real_case():
    """A mixed chain corpus and an untrained estimator with 4 heads."""

    world = replace(HEAVY, hazard=(0.1, 0.3), max_steps=12)
    episodes, _ = generate_episodes(world, 300, master_seed=53)
    assert {ep.terminal for ep in episodes} == {Terminal.COLLISION, Terminal.TIME_LIMIT}
    est = MultiHeadEstimator(EstimatorConfig(input_dim=world.obs_dim, n_heads=4,
                                             backbone_layers=(8, 8), head_layers=(4, 1),
                                             init_seed=3))
    return episodes, est, HorizonConfig(delta_t=0.1, n_heads=4, lam=0.8, trunc_n=2)


@pytest.mark.parametrize("group_rows", [evaluation.GROUP_ROWS, 37])
def test_grouped_reports_equal_per_episode_loops(real_case, monkeypatch, group_rows):
    monkeypatch.setattr(evaluation, "GROUP_ROWS", group_rows)
    episodes, est, horizon = real_case
    assert sum(ep.steps for ep in episodes) > 10 * 37

    acc, pes, counts = reference_evaluate(episodes, est, horizon)
    report = evaluate(episodes, est, horizon)
    assert report.counts.tolist() == counts.tolist()
    np.testing.assert_allclose(report.acc, acc, rtol=1e-12)
    np.testing.assert_allclose(report.pes, pes, rtol=1e-12)

    curves = collision_characteristic(episodes, report.final_head, horizon)
    assert curves.per_episode.tobytes() == reference_characteristic(episodes, est, horizon).tobytes()

    intervals = ((0.0, 0.15), (0.15, 0.35), (0.35, 0.6), (0.6, 5.0))
    peaks = reference_peaks(episodes, est, horizon, intervals)
    # Thresholds inside the spread of the peaks, so every rate is informative.
    thresholds = tuple(np.quantile(peaks[np.isfinite(peaks)], [0.1, 0.4, 0.7, 0.95]))
    table = detection_rate(episodes, report.final_head, horizon,
                           DetectionGrid(thresholds, intervals))
    assert table.rates.tobytes() == reference_rates(peaks, thresholds).tobytes()
    assert 0.0 < table.rates.mean() < 1.0


@pytest.mark.parametrize("group_rows", [evaluation.GROUP_ROWS, 37])
def test_final_head_is_the_last_column_of_one_corpus_forward(real_case, monkeypatch, group_rows):
    monkeypatch.setattr(evaluation, "GROUP_ROWS", group_rows)
    episodes, est, horizon = real_case
    report = evaluate(episodes, est, horizon)
    whole = est.forward(np.concatenate([ep.observations for ep in episodes]))[:, -1]
    assert report.final_head.dtype == np.float64
    assert report.final_head.tobytes() == whole.tobytes()


@pytest.mark.parametrize("shape", [
    # (steps, ends in a collision) per episode
    [(5, False), (1, False), (3, False)],  # no collision episode
    [(2, True), (6, False), (1, True), (3, True)],  # collisions shorter than the horizon
    [(1, True), (1, False), (4, True), (1, True), (1, False)],  # one-row episodes
], ids=["no-collision", "short-collisions", "one-row-episodes"])
@pytest.mark.parametrize("n_heads", [1, 3])
def test_reports_at_the_edges_equal_per_episode_loops(shape, n_heads):
    # Feature 0 carries a distinct value per row; every head echoes it.
    values = np.random.default_rng(7).random(sum(steps for steps, _ in shape))
    starts = np.cumsum([0] + [steps for steps, _ in shape])
    episodes = [episode(steps, collision, feature=values[lo:lo + steps])
                for (steps, collision), lo in zip(shape, starts)]
    est, horizon = FeatureEstimator(n_heads), cfg(n_heads, delta_t=0.25)
    final_head = evaluate(episodes, est, horizon).final_head
    assert final_head.tobytes() == values.tobytes()

    curves = collision_characteristic(episodes, final_head, horizon)
    eligible = [ep for ep in episodes if ep.ends_in_collision and ep.steps >= n_heads]
    collisions = [ep for ep in episodes if ep.ends_in_collision]
    assert curves.per_episode.tobytes() == reference_characteristic(episodes, est, horizon).tobytes()
    assert curves.skipped == len(collisions) - len(eligible)
    if eligible:
        np.testing.assert_array_equal(curves.mean, curves.per_episode.mean(axis=0))
    else:
        assert np.all(np.isnan(curves.mean))

    intervals = ((0.0, 0.25), (0.25, 0.75), (0.75, 5.0))
    thresholds = (0.0, 0.3, 0.6, 0.9)
    table = detection_rate(episodes, final_head, horizon, DetectionGrid(thresholds, intervals))
    peaks = reference_peaks(episodes, est, horizon, intervals)
    assert table.episode_count == len(collisions)
    assert table.rates.tobytes() == reference_rates(peaks, thresholds).tobytes()


# --- characteristic curves --------------------------------------------------


def test_characteristic_offsets_count_down_to_one_step():
    curves = collision_characteristic([episode(5, True)], np.full(5, 0.2), cfg(3))
    np.testing.assert_allclose(curves.offsets_s, [0.3, 0.2, 0.1])


def test_characteristic_constant_estimator_is_flat():
    episodes = [episode(6, True, seed=i) for i in range(4)]
    curves = collision_characteristic(episodes, np.full(24, 0.2), cfg(3))
    assert curves.per_episode.shape == (4, 3)
    assert np.all(curves.per_episode == 0.2)
    np.testing.assert_allclose(curves.mean, [0.2, 0.2, 0.2])
    assert curves.skipped == 0


def test_characteristic_reads_final_head_along_the_realized_path():
    n_heads = 3
    table = dp_cumulative(HEAVY, n_heads)
    world = HEAVY
    episodes, _ = generate_episodes(world, 400, master_seed=41)
    eligible = [
        ep for ep in episodes if ep.terminal is Terminal.COLLISION and ep.steps >= n_heads
    ]
    final_head = evaluate(episodes, TableEstimator(table), cfg(n_heads)).final_head
    curves = collision_characteristic(episodes, final_head, cfg(n_heads))
    assert curves.per_episode.shape[0] == len(eligible)
    for row, ep in zip(curves.per_episode, eligible):
        states = np.argmax(ep.observations, axis=1)[ep.steps - n_heads :]
        expected = [oracle_at(table, s, n_heads) for s in states]
        np.testing.assert_allclose(row, expected)
    np.testing.assert_allclose(curves.mean, curves.per_episode.mean(axis=0))


def test_characteristic_skips_short_collisions_and_ignores_truncations():
    episodes = [
        episode(2, True),  # too short for the horizon: skipped
        episode(9, False),  # not a collision: ignored silently
        episode(4, True),
    ]
    curves = collision_characteristic(episodes, np.arange(15.0), cfg(3))
    assert curves.skipped == 1
    # The last three rows of the 4-row collision: rows 12, 13 and 14.
    np.testing.assert_array_equal(curves.per_episode, [[12.0, 13.0, 14.0]])


def test_characteristic_with_no_eligible_episode_is_empty():
    curves = collision_characteristic([episode(9, False)], np.full(9, 0.1), cfg(3))
    assert curves.per_episode.shape == (0, 3)
    assert np.all(np.isnan(curves.mean))
    assert curves.skipped == 0


# --- detection table --------------------------------------------------------


def test_detection_intervals_are_left_open_right_closed():
    # delta_t 0.25 makes every time-to-collision exactly representable:
    # 1.0, 0.75, 0.5, 0.25 seconds at timesteps 0..3.
    table = detection_rate(
        [episode(4, True)],
        np.array([0.9, 0.2, 0.6, 0.4]),
        cfg(1, delta_t=0.25),
        DetectionGrid(thresholds=(0.3, 0.5, 0.8, 0.95),
                      intervals=((0.0, 0.25), (0.25, 0.75), (0.75, 1.0))),
    )
    # peaks per interval: (0, 0.25] -> 0.4; (0.25, 0.75] -> max(0.2, 0.6);
    # (0.75, 1.0] -> 0.9. The 0.25s step sits outside the middle interval.
    expected = np.array(
        [
            [1.0, 1.0, 1.0],
            [0.0, 1.0, 1.0],
            [0.0, 0.0, 1.0],
            [0.0, 0.0, 0.0],
        ]
    )
    np.testing.assert_array_equal(table.rates, expected)
    assert table.episode_count == 1


def test_detection_requires_strict_exceedance():
    table = detection_rate(
        [episode(4, True)], np.full(4, 0.5), cfg(1, delta_t=0.25),
        DetectionGrid(thresholds=(0.5,), intervals=((0.0, 1.0),)),
    )
    assert table.rates[0, 0] == 0.0


def test_detection_uses_only_the_final_head():
    class LoudFirstHead:
        def forward(self, observations):
            rows = np.atleast_2d(observations).shape[0]
            out = np.zeros((rows, 2))
            out[:, 0] = 5.0  # would trip every threshold if consulted
            out[:, 1] = 0.01
            return out

    episodes = [episode(4, True)]
    final_head = evaluate(episodes, LoudFirstHead(), cfg(2, delta_t=0.25)).final_head
    table = detection_rate(
        episodes, final_head, cfg(2, delta_t=0.25),
        DetectionGrid(thresholds=(0.1,), intervals=((0.0, 2.0),)),
    )
    assert table.rates[0, 0] == 0.0


def test_detection_rates_are_monotone_in_the_threshold():
    world = HEAVY
    episodes, _ = generate_episodes(world, 200, master_seed=77)
    table = dp_cumulative(HEAVY, 3)
    result = detection_rate(
        episodes,
        final_head_of(episodes, TableEstimator(table)),
        cfg(3),
        DetectionGrid(thresholds=(0.05, 0.2, 0.5, 0.9),
                      intervals=((0.0, 0.1), (0.1, 0.3), (0.3, 2.0))),
    )
    assert np.all(np.diff(result.rates, axis=0) <= 0)
    assert result.episode_count == sum(
        1 for ep in episodes if ep.terminal is Terminal.COLLISION
    )


def test_detection_interval_beyond_episode_span_never_fires():
    table = detection_rate(
        [episode(4, True)], np.full(4, 0.9), cfg(1, delta_t=0.25),
        DetectionGrid(thresholds=(0.0,), intervals=((0.0, 1.0), (5.0, 6.0))),
    )
    # No step lies in (5, 6], so it has no rate.
    np.testing.assert_array_equal(table.rates, [[1.0, np.nan]])


def test_an_interval_counts_only_the_collision_episodes_that_reach_it():
    # A 4-step episode ends 0.4 s after it starts, so it has no step 1-2 s
    # before its collision; the 20-step episode does, and alone decides there.
    table = detection_rate(
        [episode(4, True), episode(20, True)], np.ones(24), cfg(1, delta_t=0.1),
        DetectionGrid(thresholds=(0.5,), intervals=((0.0, 0.4), (1.0, 2.0))),
    )
    assert table.rates.tolist() == [[1.0, 1.0]]
    assert table.episode_count == 2


@pytest.mark.parametrize("value, rate", [(np.nan, 0.5), (np.inf, 1.0)], ids=["nan", "inf"])
def test_an_episode_with_a_non_finite_estimate_still_counts_once(value, rate):
    # Both episodes reach the interval. A NaN peak exceeds no threshold and
    # +inf exceeds every one, but neither drops its episode from the count.
    final_head = np.full(10, 0.9)
    final_head[2] = value
    table = detection_rate(
        [episode(5, True), episode(5, True)], final_head, cfg(1),
        DetectionGrid(thresholds=(0.5,), intervals=((0.0, 0.5),)),
    )
    assert table.rates.tolist() == [[rate]]


def test_detection_without_collisions_is_an_empty_table():
    table = detection_rate(
        [episode(6, False)], np.full(6, 0.9), cfg(2),
        DetectionGrid(thresholds=(0.1, 0.2), intervals=((0.0, 1.0),)),
    )
    assert table.episode_count == 0
    assert np.all(np.isnan(table.rates))


def steps_per_interval(delta_t, intervals, n_steps):
    """How many of the steps 1..n_steps before a collision each interval
    holds, read from the detection rates of n_steps collision episodes, the
    k-th of which exceeds the threshold only k steps before its collision."""

    spikes = np.eye(n_steps)[:, ::-1]  # episode k - 1 peaks at row n_steps - k
    table = detection_rate([episode(n_steps, True) for _ in range(n_steps)], spikes.ravel(),
                           cfg(1, delta_t=delta_t), DetectionGrid((0.5,), intervals))
    return (table.rates[0] * n_steps).tolist()


def test_step_three_of_a_tenth_second_episode_lands_in_the_interval_ending_at_0_3():
    # 3 * 0.1 is 0.30000000000000004 s in floating point; in steps it is 3.
    final_head = np.zeros(5)
    final_head[5 - 3] = 1.0
    table = detection_rate([episode(5, True)], final_head, cfg(1, delta_t=0.1),
                           DetectionGrid((0.5,), ((0.0, 0.1), (0.1, 0.2), (0.2, 0.3),
                                                  (0.3, 0.4), (0.4, 0.5))))
    assert table.rates.tolist() == [[0.0, 0.0, 1.0, 0.0, 0.0]]


def test_the_default_intervals_hold_four_tenth_second_steps_each():
    assert steps_per_interval(0.1, DetectionGrid().intervals, 20) == [4.0] * 5
    assert steps_per_interval(0.1, ((0.0, 0.1), (0.1, 0.2), (0.2, 0.3), (0.3, 0.4), (0.4, 0.5)),
                              5) == [1.0] * 5


def test_detection_validates_inputs():
    with pytest.raises(ValueError, match="at least one threshold"):
        DetectionGrid(thresholds=())
    with pytest.raises(ValueError, match="one interval"):
        DetectionGrid(intervals=())
    with pytest.raises(ValueError, match=r"^intervals\[0\] must have 0 <= lo < hi"):
        DetectionGrid(thresholds=(0.1,), intervals=((0.4, 0.4),))
    with pytest.raises(ValueError, match=r"^intervals\[1\] must have 0 <= lo < hi"):
        DetectionGrid(thresholds=(0.1,), intervals=((0.0, 0.4), (-0.2, 0.4)))
    with pytest.raises(ValueError, match=r"^intervals\[0\] must be a \[lo, hi\] pair"):
        DetectionGrid(intervals=((0.1,),))


def test_a_detection_grid_stores_tuples_of_floats():
    grid = DetectionGrid([1, 0.5], [[0, 1], [1, 2]])
    assert grid == DetectionGrid((1.0, 0.5), ((0.0, 1.0), (1.0, 2.0)))
    assert type(grid.thresholds[0]) is float and type(grid.intervals[1]) is tuple
    assert hash(grid) == hash(DetectionGrid((1.0, 0.5), ((0.0, 1.0), (1.0, 2.0))))


# --- exact-table comparison -------------------------------------------------


def test_oracle_errors_vanish_for_the_table_estimator():
    table = dp_cumulative(HEAVY, 3)
    errors = oracle_errors(TableEstimator(table), table, np.eye(2))
    assert errors.shape == (2, 3)
    np.testing.assert_array_equal(errors, np.zeros((2, 3)))


def test_oracle_errors_of_zero_estimator_are_the_probabilities():
    table = dp_cumulative(HEAVY, 3)
    errors = oracle_errors(ConstantEstimator(0.0, 3), table, np.eye(2))
    np.testing.assert_allclose(errors, table.probabilities[:, 1:])


def test_oracle_errors_reject_mismatched_head_counts():
    table = dp_cumulative(HEAVY, 3)
    with pytest.raises(ValueError):
        oracle_errors(ConstantEstimator(0.0, 2), table, np.eye(2))


# --- report files -----------------------------------------------------------


def parse_table(path, name, version=1):
    lines = path.read_text().splitlines()
    assert lines[0] == f"# riskhorizon-{name} v{version}"
    columns = lines[1].split("\t")
    rows = [line.split("\t") for line in lines[2:]]
    assert all(len(row) == len(columns) for row in rows)
    return columns, rows


def test_head_metrics_file_round_trips(tmp_path):
    world = HEAVY
    episodes, _ = generate_episodes(world, 60, master_seed=3)
    report = evaluate(episodes, ConstantEstimator(0.3, 3), cfg(3))
    path = tmp_path / "head_metrics.tsv"
    write_head_metrics(path, report)
    columns, rows = parse_table(path, "head-metrics")
    assert columns == ["head", "acc_error", "pes_error", "windows"]
    assert [int(row[0]) for row in rows] == [1, 2, 3]
    for i, row in enumerate(rows):
        assert float(row[1]) == pytest.approx(report.acc[i], rel=1e-11)
        assert float(row[2]) == pytest.approx(report.pes[i], rel=1e-11)
        assert int(row[3]) == report.counts[i]


def test_characteristic_file_round_trips(tmp_path):
    episodes = [episode(6, True, seed=i) for i in range(3)]
    curves = collision_characteristic(episodes, np.full(18, 0.25), cfg(4))
    path = tmp_path / "curves.tsv"
    write_characteristic(path, curves)
    columns, rows = parse_table(path, "collision-characteristic")
    assert columns == ["time_to_collision_s", "mean_estimate"]
    offsets = [float(row[0]) for row in rows]
    assert offsets == sorted(offsets, reverse=True)
    assert all(float(row[1]) == pytest.approx(0.25) for row in rows)


def test_detection_file_lists_every_cell(tmp_path):
    table = detection_rate(
        [episode(4, True)], np.array([0.9, 0.2, 0.6, 0.4]), cfg(1, delta_t=0.25),
        DetectionGrid(thresholds=(0.3, 0.8), intervals=((0.0, 0.5), (0.5, 1.0))),
    )
    path = tmp_path / "detection.tsv"
    write_detection(path, table)
    columns, rows = parse_table(path, "detection-rate", version=3)
    assert columns == ["threshold", "interval_lo_s", "interval_hi_s", "detection_rate"]
    assert len(rows) == 4
    cells = {(float(r[0]), float(r[1])): float(r[3]) for r in rows}
    assert cells[(0.3, 0.0)] == 1.0  # peak 0.6 in (0, 0.5]
    assert cells[(0.8, 0.0)] == 0.0
    assert cells[(0.8, 0.5)] == 1.0  # peak 0.9 in (0.5, 1.0]


def test_an_interval_that_holds_no_row_is_written_as_a_head_without_windows_is(tmp_path):
    table = detection_rate([episode(4, True)], np.full(4, 0.9), cfg(1, delta_t=0.25),
                           DetectionGrid((0.5,), ((0.0, 1.0), (5.0, 6.0))))
    write_detection(tmp_path / "detection.tsv", table)
    _, rows = parse_table(tmp_path / "detection.tsv", "detection-rate", version=3)
    no_windows = EvalReport(acc=np.array([np.nan]), pes=np.array([np.nan]), counts=np.array([0]),
                            final_head=np.zeros(1))
    write_head_metrics(tmp_path / "head_metrics.tsv", no_windows)
    _, heads = parse_table(tmp_path / "head_metrics.tsv", "head-metrics")
    assert heads[0][1] == "nan"
    assert [row[3] for row in rows] == ["1", heads[0][1]]


def test_oracle_error_file_covers_every_state_head_pair(tmp_path):
    table = dp_cumulative(HEAVY, 3)
    errors = oracle_errors(ConstantEstimator(0.0, 3), table, np.eye(2))
    path = tmp_path / "oracle_errors.tsv"
    write_oracle_errors(path, errors)
    columns, rows = parse_table(path, "oracle-errors")
    assert columns == ["state", "head", "abs_error"]
    assert {(int(r[0]), int(r[1])) for r in rows} == {
        (s, i) for s in range(2) for i in range(1, 4)
    }


def test_summary_file_is_versioned_json_with_stable_bytes(tmp_path):
    payload = {"acc_mean": 0.125, "episodes": 40}
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    write_summary(first, payload)
    write_summary(second, payload)
    assert first.read_bytes() == second.read_bytes()
    doc = json.loads(first.read_text())
    assert doc["format"] == "riskhorizon-eval-summary"
    assert doc["version"] == 1
    assert doc["acc_mean"] == 0.125


def test_report_dataclasses_expose_plain_fields():
    report = EvalReport(acc=np.array([0.1]), pes=np.array([0.0]), counts=np.array([4]),
                        final_head=np.zeros(4))
    assert report.n_heads == 1
    curves = CharacteristicCurves(
        offsets_s=np.array([0.1]),
        per_episode=np.zeros((2, 1)),
        mean=np.zeros(1),
        skipped=0,
    )
    assert curves.per_episode.shape == (2, 1)
    table = DetectionTable(
        grid=DetectionGrid((0.1,), ((0.0, 1.0),)), rates=np.zeros((1, 1)), episode_count=0
    )
    assert table.rates.shape == (1, 1)
