"""Worlds and episode persistence: determinism, sampling statistics against
the exact tables, corridor behaviours, and the file schema."""

import json
from dataclasses import asdict, replace
from pathlib import Path
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import oracle_at
from riskhorizon import envs
from riskhorizon.config import load_config
from riskhorizon.envs import (
    MAX_EPISODES,
    MAX_REACTION_DELAY,
    MAX_STACK_FRAMES,
    ChainWorld,
    CorridorWorld,
    Draws,
    chain_observation,
    generate_episodes,
    world_fingerprint,
)
from riskhorizon.episodes import (
    TERMINAL_CODES,
    Episode,
    SchemaError,
    Terminal,
    load_episodes,
    save_episodes,
)
from riskhorizon.oracle import dp_cumulative

# Upper 1% point of chi-squared with 3 degrees of freedom, for the
# start-distribution frequency test (reject only below p = 0.01).
CHI2_CRIT_DF3_P01 = 11.345

FOUR_STATES = ChainWorld(
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


def run_episode(world, seed: int) -> Episode:
    """Roll the one episode of `seed`.

    Row t of the record is the observation the step t+1 started from; the
    state reached by the final step is not recorded, and the step's end
    reason becomes the episode's terminal.
    """

    return world.rollout(Draws([seed]))[0]


# --- chain world ------------------------------------------------------------


def test_chain_world_validation():
    with pytest.raises(ValueError):
        ChainWorld(
            n_states=2, hazard=(0.5,), transition=((1.0,),), start_distribution=(1.0,)
        )
    with pytest.raises(ValueError):
        ChainWorld(
            n_states=1, hazard=(1.5,), transition=((1.0,),), start_distribution=(1.0,)
        )
    with pytest.raises(ValueError):
        ChainWorld(
            n_states=2,
            hazard=(0.1, 0.1),
            transition=((0.7, 0.2), (0.5, 0.5)),
            start_distribution=(1.0, 0.0),
        )
    with pytest.raises(ValueError):
        ChainWorld(
            n_states=2,
            hazard=(0.1, 0.1),
            transition=((0.5, 0.5), (0.5, 0.5)),
            start_distribution=(0.7, 0.7),
        )
    with pytest.raises(ValueError, match="max_steps"):
        replace(FOUR_STATES, max_steps=0)
    for stack_frames in (0, MAX_STACK_FRAMES + 1):
        with pytest.raises(ValueError, match="stack_frames"):
            replace(FOUR_STATES, stack_frames=stack_frames)
    assert replace(FOUR_STATES, stack_frames=MAX_STACK_FRAMES).obs_dim == 4 * MAX_STACK_FRAMES


def test_chain_reset_deterministic():
    world = FOUR_STATES
    a = run_episode(world, 123).observations[0]
    b = run_episode(world, 123).observations[0]
    assert np.array_equal(a, b)


def test_chain_observation_is_tiled_one_hot():
    obs = chain_observation(replace(FOUR_STATES, stack_frames=3), 2)
    assert obs.shape == (12,)
    assert obs.tolist() == [0, 0, 1, 0] * 3


def test_chain_reset_matches_start_distribution():
    world = replace(FOUR_STATES, max_steps=1)
    counts = np.zeros(4)
    n = 10_000
    for seed in range(n):
        obs = run_episode(world, seed).observations[0]
        counts[int(np.argmax(obs))] += 1
    expected = np.asarray(FOUR_STATES.start_distribution) * n
    stat = float(((counts - expected) ** 2 / expected).sum())
    assert stat < CHI2_CRIT_DF3_P01, f"chi-squared statistic {stat:.2f}"


def test_chain_zero_hazard_never_collides():
    world = ChainWorld(
        n_states=2,
        hazard=(0.0, 0.0),
        transition=((0.5, 0.5), (0.5, 0.5)),
        start_distribution=(1.0, 0.0),
        max_steps=20,
    )
    eps, summary = generate_episodes(world, 50, 7)
    assert summary.collisions == 0
    assert all(ep.terminal is Terminal.TIME_LIMIT for ep in eps)
    assert all(ep.steps == 20 for ep in eps)


def test_chain_certain_hazard_one_step_episodes():
    world = ChainWorld(
        n_states=1, hazard=(1.0,), transition=((1.0,),), start_distribution=(1.0,)
    )
    eps, summary = generate_episodes(world, 20, 3)
    assert summary.collision_fraction == 1.0
    assert all(ep.steps == 1 for ep in eps)


def test_chain_per_step_collision_frequency():
    world = ChainWorld(
        n_states=1, hazard=(0.1,), transition=((1.0,),), start_distribution=(1.0,), max_steps=200
    )
    total_steps = 0
    collisions = 0
    seed = 0
    while total_steps < 10_000:
        ep = run_episode(world, seed)
        seed += 1
        total_steps += ep.steps
        collisions += int(ep.terminal is Terminal.COLLISION)
    freq = collisions / total_steps
    assert freq == pytest.approx(0.1, abs=0.01)


def test_chain_cumulative_frequency_matches_oracle():
    world = ChainWorld(
        n_states=2,
        hazard=(0.2, 0.4),
        transition=((0.5, 0.5), (0.3, 0.7)),
        start_distribution=(1.0, 0.0),
        max_steps=10,
    )
    n_heads = 5
    table = dp_cumulative(world, n_heads)
    n = 10_000
    eps, _ = generate_episodes(world, n, 42)
    coll_step = np.array(
        [ep.steps if ep.terminal is Terminal.COLLISION else 10**9 for ep in eps]
    )
    for i in range(1, n_heads + 1):
        freq = float((coll_step <= i).mean())
        p = oracle_at(table, 0, i)
        se = np.sqrt(p * (1 - p) / n)
        assert abs(freq - p) <= 3 * se, f"i={i}: {freq} vs {p}"


def test_chain_frame_stacking():
    world = replace(FOUR_STATES, stack_frames=2)
    first = run_episode(world, 5).observations[0]
    assert first.shape == (8,)
    assert np.array_equal(first[:4], first[4:])  # stack starts repeated
    assert world.obs_dim == 8


class Step(NamedTuple):
    """What a reference world's reset or step returns; done_reason is set
    once the episode ends."""

    observation: np.ndarray
    done_reason: Terminal | None = None


def reference_episode(world, seed):
    """One episode of a reference world, rolled one reset and step at a time."""

    result = world.reset(seed)
    observations = []
    while result.done_reason is None:
        observations.append(result.observation)
        result = world.step()
    return Episode(observations=np.array(observations), terminal=result.done_reason, seed=seed)


def consumed(draws):
    """Words each row of `draws` has used: those fetched less those unread."""

    return draws.fetched - (envs.WORD_BLOCK - draws.pos)


def assert_stream_ends_where(draws, row, rng):
    """Row `row` of `draws` used the words `rng` used, and holds the same
    cached 32-bit half."""

    state = rng.bit_generator.state
    source = np.random.PCG64(draws.seeds[row])
    source.random_raw(int(consumed(draws)[row]))
    assert source.state["state"] == state["state"]
    assert bool(draws.has_half[row]) == bool(state["has_uint32"])
    if state["has_uint32"]:
        assert int(draws.half[row]) == state["uinteger"]


def assert_same_episode(got, want):
    assert got.observations.shape == want.observations.shape
    assert got.observations.tobytes() == want.observations.tobytes()
    assert got.terminal is want.terminal
    assert got.seed == want.seed


class ReferenceChainWorld:
    """The chain world as it drew states with `rng.choice` and stacked frame
    arrays, one episode at a time: the bit-level reference for ChainWorld."""

    def __init__(self, world):
        self.spec = world
        self.max_steps = world.max_steps
        self.stack_frames = world.stack_frames
        self._transition = np.array(world.transition)
        self._start = np.array(world.start_distribution)

    def reset(self, seed):
        self._rng = np.random.default_rng(seed)
        self._state = int(self._rng.choice(self.spec.n_states, p=self._start))
        self._frames = [self._frame()] * self.stack_frames
        self._steps = 0
        return Step(np.concatenate(self._frames))

    def step(self):
        self._steps += 1
        if self._rng.random() < self.spec.hazard[self._state]:
            return Step(np.concatenate(self._frames), Terminal.COLLISION)
        self._state = int(self._rng.choice(self.spec.n_states, p=self._transition[self._state]))
        self._frames = self._frames[1:] + [self._frame()]
        done = self._steps >= self.max_steps
        return Step(np.concatenate(self._frames), Terminal.TIME_LIMIT if done else None)

    def _frame(self):
        frame = np.zeros(self.spec.n_states)
        frame[self._state] = 1.0
        return frame


def _distribution(weights):
    total = sum(weights)
    return tuple(w / total for w in weights)


@st.composite
def chain_worlds(draw):
    # Integer weights give rows with exact zeros (including trailing ones) and
    # uneven masses; hazards include the certain and impossible ends.
    n = draw(st.integers(1, 5))
    weights = st.lists(st.integers(0, 9), min_size=n, max_size=n).filter(any)
    hazard = st.sampled_from([0.0, 0.05, 0.5, 1.0]) | st.floats(0.0, 1.0)
    return ChainWorld(
        n_states=n,
        hazard=tuple(draw(st.lists(hazard, min_size=n, max_size=n))),
        transition=tuple(_distribution(draw(weights)) for _ in range(n)),
        start_distribution=_distribution(draw(weights)),
        max_steps=draw(st.integers(1, 60)),
        stack_frames=draw(st.integers(1, 3)),
    )


@settings(max_examples=60, deadline=None)
@given(chain_worlds(), st.integers(0, 2**63 - 2))
def test_chain_episodes_match_the_reference_world_bit_for_bit(world, seed):
    reference = ReferenceChainWorld(world)
    draws = Draws([seed])
    [got] = world.rollout(draws)
    assert_same_episode(got, reference_episode(reference, seed))
    assert_stream_ends_where(draws, 0, reference._rng)


# --- corridor world ---------------------------------------------------------


def test_corridor_world_validation():
    with pytest.raises(ValueError):
        CorridorWorld(lane_length=50.0)  # shorter than twice the sensing range
    with pytest.raises(ValueError):
        CorridorWorld(speed_max=20.0)  # obstacles faster than the ego target
    with pytest.raises(ValueError):
        CorridorWorld(delta_t=0.0)
    with pytest.raises(ValueError):
        CorridorWorld(spawn_rate=-0.5)
    with pytest.raises(ValueError, match="max_steps"):
        CorridorWorld(max_steps=0)
    for stack_frames in (0, MAX_STACK_FRAMES + 1):
        with pytest.raises(ValueError, match="stack_frames"):
            CorridorWorld(stack_frames=stack_frames)
    assert CorridorWorld(stack_frames=MAX_STACK_FRAMES).obs_dim == 8 * MAX_STACK_FRAMES


def test_corridor_deterministic_episodes():
    a = run_episode(CorridorWorld(), 77)
    b = run_episode(CorridorWorld(), 77)
    assert np.array_equal(a.observations, b.observations)
    assert a.terminal == b.terminal


def test_corridor_empty_road_times_out():
    world = CorridorWorld(spawn_rate=0.0, max_steps=60)
    for seed in (0, 1, 2):
        ep = run_episode(world, seed)
        assert ep.terminal is Terminal.TIME_LIMIT
        assert ep.steps == 60


def test_corridor_observation_shape_and_bounds():
    world = CorridorWorld(stack_frames=3)
    assert world.obs_dim == 24
    ep = run_episode(world, 9)
    assert ep.observations.shape[1] == 24
    assert np.all(np.isfinite(ep.observations))
    assert np.abs(ep.observations).max() < 10.0


def test_corridor_default_collision_fraction_band():
    # Documented target: roughly a third of default-spec episodes collide.
    world = CorridorWorld()
    _, summary = generate_episodes(world, 300, 123)
    assert 0.15 <= summary.collision_fraction <= 0.45, summary.collision_fraction


# --- corridor world against its reference copy ------------------------------


class ReferenceCorridorWorld:
    """The corridor world as it computed each step before the gaps were shared
    and frames became lists, one episode at a time: the bit-level reference
    for CorridorWorld."""

    _EGO_ACCEL = 2.5
    _CAR_GAP = 2.0
    _SAFETY_MARGIN = 4.0
    _SENSING_RANGE = 60.0
    _SPEED_CHANGE_PROB = 0.02
    _MAX_OBSTACLES = 12
    _INITIAL_OBSTACLES = 3
    _STOPPED_EPS = 1e-9

    def __init__(self, world):
        self.spec = world
        self.stack_frames = world.stack_frames

    def reset(self, seed):
        spec = self.spec
        self._rng = np.random.default_rng(seed)
        self._ego_x = 0.0
        self._ego_v = spec.target_speed
        self._obstacle_x, self._obstacle_v = [], []
        initial = self._INITIAL_OBSTACLES if spec.spawn_rate > 0 else 0
        for _ in range(initial):
            ahead = self._rng.uniform(0.5 * self._SENSING_RANGE, spec.lane_length - self._CAR_GAP)
            self._obstacle_x.append((self._ego_x + ahead) % spec.lane_length)
            self._obstacle_v.append(self._rng.uniform(spec.speed_min, spec.speed_max))
        self._steps = 0
        self._stopped_steps = 0
        self._react_countdown = None
        self._frames = [self._frame()] * self.stack_frames
        return Step(self._stacked())

    def step(self):
        spec, rng = self.spec, self._rng
        self._steps += 1
        if len(self._obstacle_x) < self._MAX_OBSTACLES and rng.random() < spec.spawn_rate * spec.delta_t:
            self._obstacle_x.append((self._ego_x + self._SENSING_RANGE) % spec.lane_length)
            self._obstacle_v.append(rng.uniform(spec.speed_min, spec.speed_max))
        for j in range(len(self._obstacle_v)):
            if rng.random() < self._SPEED_CHANGE_PROB:
                self._obstacle_v[j] = rng.uniform(spec.speed_min, spec.speed_max)
        if self._danger_ahead():
            if self._react_countdown is None:
                self._react_countdown = int(rng.integers(0, spec.reaction_delay_steps + 1))
            if self._react_countdown > 0:
                self._react_countdown -= 1
                braking = False
            else:
                braking = True
        else:
            self._react_countdown = None
            braking = False
        if braking:
            self._ego_v = max(0.0, self._ego_v - spec.brake_decel * spec.delta_t)
        else:
            self._ego_v = min(spec.target_speed, self._ego_v + self._EGO_ACCEL * spec.delta_t)
        self._ego_x = (self._ego_x + self._ego_v * spec.delta_t) % spec.lane_length
        for j in range(len(self._obstacle_x)):
            self._obstacle_x[j] = (self._obstacle_x[j] + self._obstacle_v[j] * spec.delta_t) % spec.lane_length
        if any(gap < self._CAR_GAP for gap in self._gaps()):
            return Step(self._stacked(), Terminal.COLLISION)
        if self._ego_v < self._STOPPED_EPS:
            self._stopped_steps += 1
        else:
            self._stopped_steps = 0
        self._frames = self._frames[1:] + [self._frame()]
        if self._stopped_steps * spec.delta_t >= spec.blocked_timeout_s:
            return Step(self._stacked(), Terminal.BLOCKED)
        if self._steps >= spec.max_steps:
            return Step(self._stacked(), Terminal.TIME_LIMIT)
        return Step(self._stacked())

    def _gaps(self):
        return [(x - self._ego_x) % self.spec.lane_length for x in self._obstacle_x]

    def _danger_ahead(self):
        for gap, v_obs in zip(self._gaps(), self._obstacle_v):
            if gap > self._SENSING_RANGE:
                continue
            closing = self._ego_v - v_obs
            clearance = gap - self._CAR_GAP - self._SAFETY_MARGIN
            if clearance <= 0.0:
                if closing > 0.0:
                    return True
            elif closing > 0.0 and clearance / closing <= self.spec.check_horizon_s:
                return True
        return False

    def _frame(self):
        spec = self.spec
        frame = np.empty(8)
        frame[0] = self._ego_v / spec.target_speed
        visible = sorted(
            (gap, v) for gap, v in zip(self._gaps(), self._obstacle_v) if gap <= self._SENSING_RANGE
        )
        for k in range(3):
            if k < len(visible):
                gap, v_obs = visible[k]
                frame[1 + 2 * k] = gap / self._SENSING_RANGE
                frame[2 + 2 * k] = (v_obs - self._ego_v) / spec.target_speed
            else:
                frame[1 + 2 * k] = 1.0
                frame[2 + 2 * k] = 0.0
        frame[7] = self._ego_x / spec.lane_length
        return frame

    def _stacked(self):
        return np.concatenate(self._frames)


corridor_variants = st.fixed_dictionaries({
    "spawn_rate": st.sampled_from([0.0, 0.5, 3.0, 10.0]) | st.floats(0.0, 10.0),
    # Large delays take the rejection branch of the bounded draw often.
    "reaction_delay_steps": st.integers(0, 4) | st.sampled_from([3 * 2**30 - 1,
                                                                 MAX_REACTION_DELAY]),
    "speed_min": st.sampled_from([0.0, 2.0]),
    "speed_max": st.sampled_from([2.0, 8.0]),
    "check_horizon_s": st.sampled_from([0.3, 1.3, 3.0]),
    "max_steps": st.integers(1, 150),
    "blocked_timeout_s": st.sampled_from([0.5, 5.0]),
})


@settings(max_examples=40, deadline=None)
@given(corridor_variants, st.integers(1, 3), st.integers(0, 2**63 - 2))
def test_corridor_episodes_match_the_reference_world_bit_for_bit(fields, stack_frames, seed):
    world = CorridorWorld(**fields, stack_frames=stack_frames)
    reference = ReferenceCorridorWorld(world)
    draws = Draws([seed])
    [got] = world.rollout(draws)
    assert_same_episode(got, reference_episode(reference, seed))
    assert_stream_ends_where(draws, 0, reference._rng)


def test_corridor_default_corpus_matches_the_reference_world():
    # The benchmark's corridor world, over enough seeds to reach every terminal.
    world = CorridorWorld(stack_frames=3)
    terminals = set()
    for seed in range(10):
        got = run_episode(world, seed)
        assert_same_episode(got, reference_episode(ReferenceCorridorWorld(world), seed))
        terminals.add(got.terminal)
    assert terminals == {Terminal.COLLISION, Terminal.TIME_LIMIT}


BATCHED = {
    "chain": (replace(FOUR_STATES, max_steps=30, stack_frames=2), ReferenceChainWorld),
    "corridor": (CorridorWorld(spawn_rate=3.0, stack_frames=3), ReferenceCorridorWorld),
}


@pytest.mark.parametrize("kind", sorted(BATCHED))
def test_generated_batches_match_the_reference_worlds(kind, monkeypatch):
    # Batches of 3 seeds, the last one short: episodes leave a batch on
    # different steps, and a batch boundary falls inside the corpus. Blocks
    # of the fewest words a corridor step may take refill every few steps.
    monkeypatch.setattr(envs, "ROLLOUT_BATCH", 3)
    monkeypatch.setattr(envs, "WORD_BLOCK", 26)
    world, reference_world = BATCHED[kind]
    reference = reference_world(world)
    got, _ = generate_episodes(world, 8, 3)
    assert all(len({ep.steps for ep in got[lo:lo + 3]}) > 1 for lo in (0, 3, 6))
    for ep in got:
        assert_same_episode(ep, reference_episode(reference, ep.seed))
    draws = Draws([ep.seed for ep in got[:3]])
    world.rollout(draws)
    for row, ep in enumerate(got[:3]):
        reference_episode(reference, ep.seed)
        assert_stream_ends_where(draws, row, reference._rng)


# --- the draw rules against Generator ---------------------------------------

# A range whose Lemire draw rejects a quarter of its 32-bit values: for
# 3 * 2**30 values, the threshold 2**32 mod 3 * 2**30 is 2**30.
REJECTING_RANGE = 3 * 2**30 - 1

draw_calls = st.lists(
    st.tuples(st.just("random"))
    | st.tuples(st.just("uniform"), st.sampled_from([0.0, 2.0, 30.0]),
                st.sampled_from([0.0, 2.0, 8.0, 398.0]))
    | st.tuples(st.just("integers"), st.sampled_from([0, 1, 2, 4, 2**16, REJECTING_RANGE,
                                                      MAX_REACTION_DELAY])),
    max_size=300,
)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**63 - 2), draw_calls, st.sampled_from([1, 2, envs.WORD_BLOCK]))
def test_draws_give_what_generator_gives(seed, calls, block):
    # Runs of integers use PCG64's cached half, integers(0, 1) takes no word,
    # and uniform(2.0, 2.0) takes one; small blocks refill between draws.
    rng = np.random.default_rng(seed)
    row = np.array([0])
    with mock.patch.object(envs, "WORD_BLOCK", block):
        draws = Draws([seed])
        for name, *args in calls:
            draws.reserve(row, 1)
            if name == "random":
                got, want = draws.double(row)[0], rng.random()
            elif name == "uniform":
                low, high = min(args), max(args)
                got, want = draws.uniform(row, low, high)[0], rng.uniform(low, high)
            else:
                got, want = draws.bounded(row, args[0])[0], rng.integers(0, args[0] + 1)
            assert got == want and np.float64(got).tobytes() == np.float64(want).tobytes()
        assert_stream_ends_where(draws, 0, rng)


def test_a_rejected_bounded_draw_takes_the_next_half():
    class Words:
        """A word source whose first word has the lower half 0."""

        def random_raw(self, size):
            words = np.arange(size, dtype=np.uint64)
            words[0] = np.uint64(7 << 32)
            return words

    draws = Draws([0])
    draws.sources[0] = Words()
    row = np.array([0])
    # The lower half 0 leaves 0 < 2**30, so it is rejected; the cached upper
    # half 7 gives (7 * 3 * 2**30) >> 32 = 5 with leftover 2**30, accepted.
    assert draws.bounded(row, REJECTING_RANGE).tolist() == [5]
    assert consumed(draws).tolist() == [1] and not draws.has_half[0]
    # The next draw takes word 1: its lower half 1 gives (1 * 3) >> 32 = 0,
    # and its upper half 0 is cached.
    assert draws.bounded(row, 2).tolist() == [0]
    assert consumed(draws).tolist() == [2] and draws.has_half[0] and draws.half[0] == 0


# --- generation plumbing ----------------------------------------------------


def test_generate_requires_positive_count():
    world = FOUR_STATES
    with pytest.raises(ValueError):
        generate_episodes(world, 0, 1)


def test_generate_bounds_the_count_before_drawing_seeds():
    # 10**11 seeds would take 745 GiB.
    world = FOUR_STATES
    for count in (MAX_EPISODES + 1, 10**11):
        with pytest.raises(ValueError, match=f"at most {MAX_EPISODES}"):
            generate_episodes(world, count, 1)


def test_generate_deterministic_collection():
    world = replace(FOUR_STATES, max_steps=30)
    eps1, sum1 = generate_episodes(world, 40, 11)
    eps2, sum2 = generate_episodes(world, 40, 11)
    assert sum1 == sum2
    for a, b in zip(eps1, eps2):
        assert np.array_equal(a.observations, b.observations)
        assert a.terminal == b.terminal and a.seed == b.seed


def test_generated_episodes_satisfy_trace_invariants(tmp_path):
    # The file records each episode's step count and its terminal as a
    # code; a collision, when there is one, is the final recorded step.
    world = replace(FOUR_STATES, max_steps=25)
    eps, summary = generate_episodes(world, 100, 5)
    assert summary.episodes == 100
    assert sum(summary.length_histogram.values()) == 100
    assert summary.collisions == sum(ep.terminal is Terminal.COLLISION for ep in eps)
    assert 0 < summary.collisions < 100
    path = tmp_path / "eps.jsonl"
    save_episodes(path, eps, world_fingerprint(world))
    with np.load(path, allow_pickle=False) as archive:
        steps, codes = archive["steps"].tolist(), archive["terminal"].tolist()
    assert steps == [ep.steps for ep in eps]
    assert [TERMINAL_CODES[k] for k in codes] == [ep.terminal for ep in eps]
    assert sum(steps) == sum(summary.length_histogram[n] * n for n in summary.length_histogram)


def test_world_fingerprint_distinguishes_specs():
    a = world_fingerprint(FOUR_STATES)
    b = world_fingerprint(replace(FOUR_STATES))
    assert a == b
    other = replace(FOUR_STATES, hazard=(0.03, 0.05, 0.1, 0.18))
    assert world_fingerprint(other) != a
    assert world_fingerprint(replace(FOUR_STATES, max_steps=99)) != a
    assert world_fingerprint(CorridorWorld()) != a
    # The frame stack is a field like any other: it shapes observations and the hash.
    for world, stacked_dim in ((FOUR_STATES, 8), (CorridorWorld(), 16)):
        stacked = replace(world, stack_frames=2)
        assert stacked.obs_dim == stacked_dim != world.obs_dim
        assert world_fingerprint(stacked) != world_fingerprint(world)


def test_an_integer_for_a_float_field_gives_the_fingerprint_of_the_float():
    # Equal worlds must share one spec_hash, however their config spelled a number.
    spelled = {name: int(value) for name, value in asdict(CorridorWorld()).items()
               if isinstance(value, float) and value.is_integer()}
    assert "lane_length" in spelled
    world = CorridorWorld(**spelled)
    assert all(type(getattr(world, name)) is float for name in spelled)
    assert world == CorridorWorld()
    assert world_fingerprint(world) == world_fingerprint(CorridorWorld()) == "f897a4629f260cbd"


@pytest.mark.parametrize("name, want", [("chain_small.json", "d1584237049b7513"),
                                        ("corridor_default.json", "f897a4629f260cbd")])
def test_world_fingerprint_of_the_presets_is_unchanged(name, want):
    # Episode files carry this string as spec_hash, and train warns when it
    # differs from the config's, so files written earlier depend on it.
    world = load_config(Path(__file__).resolve().parents[1] / "configs" / name).world
    assert world_fingerprint(world) == want


# --- persistence ------------------------------------------------------------


def small_corpus():
    world = replace(FOUR_STATES, max_steps=15, stack_frames=2)
    eps, _ = generate_episodes(world, 12, 99)
    return eps, world_fingerprint(world)


def test_save_load_round_trip(tmp_path):
    eps, fp = small_corpus()
    path = tmp_path / "eps.jsonl"
    save_episodes(path, eps, fp)
    loaded, header = load_episodes(path)
    assert header["spec_hash"] == fp
    assert header["episodes"] == len(eps)
    assert header["obs_dim"] == 8
    assert len(loaded) == len(eps)
    for a, b in zip(eps, loaded):
        assert a.terminal == b.terminal and a.seed == b.seed
        assert a.observations.tobytes() == b.observations.tobytes()


def test_save_is_idempotent_after_reload(tmp_path):
    # Values are stored exactly: save(load(save(x))) == save(x).
    eps, fp = small_corpus()
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_episodes(p1, eps, fp)
    loaded, _ = load_episodes(p1)
    save_episodes(p2, loaded, fp)
    assert p1.read_bytes() == p2.read_bytes()


def rewritten(path, out, **changes):
    """`path` written to `out` with archive members replaced (None: left out)."""

    with np.load(path, allow_pickle=False) as archive:
        arrays = {name: archive[name] for name in archive.files}
    arrays.update(changes)
    with open(out, "wb") as fh:
        np.savez(fh, **{k: v for k, v in arrays.items() if v is not None})
    return out


def test_load_rejects_bad_files(tmp_path):
    eps, fp = small_corpus()
    good = tmp_path / "good.jsonl"
    save_episodes(good, eps, fp)
    data = good.read_bytes()

    with pytest.raises(SchemaError):
        load_episodes(rewritten(good, tmp_path / "no_header.jsonl", header=None))

    truncated = tmp_path / "truncated.jsonl"
    truncated.write_bytes(data[:-100])
    with pytest.raises(SchemaError):
        load_episodes(truncated)

    garbage = tmp_path / "garbage.jsonl"
    garbage.write_bytes(b"not an archive\n")
    with pytest.raises(SchemaError):
        load_episodes(garbage)

    header = load_episodes(good)[1]
    version = np.frombuffer(json.dumps({**header, "version": 99}).encode(), dtype=np.uint8)
    with pytest.raises(SchemaError):
        load_episodes(rewritten(good, tmp_path / "version.jsonl", header=version))


def test_load_rejects_bad_collision_flag(tmp_path):
    # Version 2 states the collision outcome as one terminal code per episode.
    eps, fp = small_corpus()
    path = tmp_path / "eps.jsonl"
    save_episodes(path, eps, fp)
    codes = np.zeros(len(eps), dtype=np.int8)
    codes[0] = len(TERMINAL_CODES)
    with pytest.raises(SchemaError, match="unknown terminal code"):
        load_episodes(rewritten(path, tmp_path / "bad.jsonl", terminal=codes))


def test_episode_validation():
    # The terminal states the outcome, so what is left to reject is a shape
    # without steps and a terminal that is not one.
    with pytest.raises(ValueError):
        Episode(observations=np.zeros((0, 2)), terminal=Terminal.TIME_LIMIT, seed=0)
    with pytest.raises(ValueError):
        Episode(observations=np.zeros(3), terminal=Terminal.TIME_LIMIT, seed=0)
    with pytest.raises(TypeError):
        Episode(observations=np.zeros((3, 2)), terminal="collision", seed=0)
    ep = Episode(observations=np.zeros((3, 2)), terminal=Terminal.COLLISION, seed=0)
    assert (ep.steps, ep.obs_dim, ep.ends_in_collision) == (3, 2, True)
    assert not Episode(np.zeros((1, 0)), Terminal.BLOCKED, 0).ends_in_collision
