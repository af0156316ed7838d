"""Worlds and episode persistence: determinism, sampling statistics against
the exact tables, corridor behaviours, and the file schema."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskhorizon.envs import (
    ChainWorld,
    ChainWorldSpec,
    CorridorWorld,
    CorridorWorldSpec,
    EnvStateError,
    EnvStep,
    chain_observation,
    generate_episodes,
    run_episode,
    world_fingerprint,
)
from riskhorizon.episodes import (
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

FOUR_STATES = ChainWorldSpec(
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


# --- chain world ------------------------------------------------------------


def test_chain_spec_validation():
    with pytest.raises(ValueError):
        ChainWorldSpec(
            n_states=2, hazard=(0.5,), transition=((1.0,),), start_distribution=(1.0,)
        )
    with pytest.raises(ValueError):
        ChainWorldSpec(
            n_states=1, hazard=(1.5,), transition=((1.0,),), start_distribution=(1.0,)
        )
    with pytest.raises(ValueError):
        ChainWorldSpec(
            n_states=2,
            hazard=(0.1, 0.1),
            transition=((0.7, 0.2), (0.5, 0.5)),
            start_distribution=(1.0, 0.0),
        )
    with pytest.raises(ValueError):
        ChainWorldSpec(
            n_states=2,
            hazard=(0.1, 0.1),
            transition=((0.5, 0.5), (0.5, 0.5)),
            start_distribution=(0.7, 0.7),
        )


def test_chain_reset_deterministic():
    world = ChainWorld(FOUR_STATES)
    a = world.reset(123).observation
    b = world.reset(123).observation
    assert np.array_equal(a, b)


def test_chain_observation_is_tiled_one_hot():
    obs = chain_observation(FOUR_STATES, 2, stack_frames=3)
    assert obs.shape == (12,)
    assert obs.tolist() == [0, 0, 1, 0] * 3


def test_chain_reset_matches_start_distribution():
    world = ChainWorld(FOUR_STATES)
    counts = np.zeros(4)
    n = 10_000
    for seed in range(n):
        obs = world.reset(seed).observation
        counts[int(np.argmax(obs))] += 1
    expected = np.asarray(FOUR_STATES.start_distribution) * n
    stat = float(((counts - expected) ** 2 / expected).sum())
    assert stat < CHI2_CRIT_DF3_P01, f"chi-squared statistic {stat:.2f}"


def test_chain_zero_hazard_never_collides():
    spec = ChainWorldSpec(
        n_states=2,
        hazard=(0.0, 0.0),
        transition=((0.5, 0.5), (0.5, 0.5)),
        start_distribution=(1.0, 0.0),
    )
    world = ChainWorld(spec, max_steps=20)
    eps, summary = generate_episodes(world, 50, 7)
    assert summary.collisions == 0
    assert all(ep.terminal is Terminal.TIME_LIMIT for ep in eps)
    assert all(ep.steps == 20 for ep in eps)


def test_chain_certain_hazard_one_step_episodes():
    spec = ChainWorldSpec(
        n_states=1, hazard=(1.0,), transition=((1.0,),), start_distribution=(1.0,)
    )
    eps, summary = generate_episodes(ChainWorld(spec), 20, 3)
    assert summary.collision_fraction == 1.0
    assert all(ep.steps == 1 for ep in eps)


def test_chain_per_step_collision_frequency():
    spec = ChainWorldSpec(
        n_states=1, hazard=(0.1,), transition=((1.0,),), start_distribution=(1.0,)
    )
    world = ChainWorld(spec, max_steps=200)
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
    spec = ChainWorldSpec(
        n_states=2,
        hazard=(0.2, 0.4),
        transition=((0.5, 0.5), (0.3, 0.7)),
        start_distribution=(1.0, 0.0),
    )
    n_heads = 5
    table = dp_cumulative(spec, n_heads)
    world = ChainWorld(spec, max_steps=10)
    n = 10_000
    eps, _ = generate_episodes(world, n, 42)
    coll_step = np.array(
        [ep.steps if ep.terminal is Terminal.COLLISION else 10**9 for ep in eps]
    )
    for i in range(1, n_heads + 1):
        freq = float((coll_step <= i).mean())
        p = table.at(0, i)
        se = np.sqrt(p * (1 - p) / n)
        assert abs(freq - p) <= 3 * se, f"i={i}: {freq} vs {p}"


def test_chain_step_after_done_rejected():
    spec = ChainWorldSpec(
        n_states=1, hazard=(1.0,), transition=((1.0,),), start_distribution=(1.0,)
    )
    world = ChainWorld(spec)
    world.reset(0)
    result = world.step()
    assert result.done
    with pytest.raises(EnvStateError):
        world.step()
    with pytest.raises(EnvStateError):
        ChainWorld(spec).step()


def test_chain_frame_stacking():
    world = ChainWorld(FOUR_STATES, stack_frames=2)
    first = world.reset(5).observation
    assert first.shape == (8,)
    assert np.array_equal(first[:4], first[4:])  # stack starts repeated
    assert world.obs_dim == 8


# --- corridor world ---------------------------------------------------------


def test_corridor_spec_validation():
    with pytest.raises(ValueError):
        CorridorWorldSpec(lane_length=50.0)  # shorter than twice the sensing range
    with pytest.raises(ValueError):
        CorridorWorldSpec(speed_max=20.0)  # obstacles faster than the ego target
    with pytest.raises(ValueError):
        CorridorWorldSpec(delta_t=0.0)
    with pytest.raises(ValueError):
        CorridorWorldSpec(spawn_rate=-0.5)


def test_corridor_deterministic_episodes():
    spec = CorridorWorldSpec()
    a = run_episode(CorridorWorld(spec), 77)
    b = run_episode(CorridorWorld(spec), 77)
    assert np.array_equal(a.observations, b.observations)
    assert np.array_equal(a.rewards, b.rewards)
    assert a.terminal == b.terminal


def test_corridor_empty_road_times_out():
    spec = CorridorWorldSpec(spawn_rate=0.0, max_steps=60)
    for seed in (0, 1, 2):
        ep = run_episode(CorridorWorld(spec), seed)
        assert ep.terminal is Terminal.TIME_LIMIT
        assert ep.steps == 60


def test_corridor_observation_shape_and_bounds():
    world = CorridorWorld(CorridorWorldSpec(), stack_frames=3)
    assert world.obs_dim == 24
    ep = run_episode(world, 9)
    assert ep.observations.shape[1] == 24
    assert np.all(np.isfinite(ep.observations))
    assert np.abs(ep.observations).max() < 10.0


def test_corridor_default_collision_fraction_band():
    # Documented target: roughly a third of default-spec episodes collide.
    world = CorridorWorld(CorridorWorldSpec())
    _, summary = generate_episodes(world, 300, 123)
    assert 0.15 <= summary.collision_fraction <= 0.45, summary.collision_fraction


def test_corridor_step_after_done_rejected():
    spec = CorridorWorldSpec(spawn_rate=0.0, max_steps=3)
    world = CorridorWorld(spec)
    world.reset(0)
    for _ in range(3):
        result = world.step()
    assert result.done
    with pytest.raises(EnvStateError):
        world.step()


# --- corridor world against its reference copy ------------------------------


class ReferenceCorridorWorld:
    """The corridor world as it computed each step before the gaps were shared
    and frames became lists: the bit-level reference for CorridorWorld."""

    _EGO_ACCEL = 2.5
    _CAR_GAP = 2.0
    _SAFETY_MARGIN = 4.0
    _SENSING_RANGE = 60.0
    _SPEED_CHANGE_PROB = 0.02
    _MAX_OBSTACLES = 12
    _INITIAL_OBSTACLES = 3
    _STOPPED_EPS = 1e-9

    def __init__(self, spec, stack_frames=3):
        self.spec = spec
        self.stack_frames = stack_frames

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
        return EnvStep(self._stacked(), collision=False, done=False, done_reason=None)

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
            return EnvStep(self._stacked(), collision=True, done=True, done_reason=Terminal.COLLISION)
        if self._ego_v < self._STOPPED_EPS:
            self._stopped_steps += 1
        else:
            self._stopped_steps = 0
        self._frames = self._frames[1:] + [self._frame()]
        if self._stopped_steps * spec.delta_t >= spec.blocked_timeout_s:
            return EnvStep(self._stacked(), collision=False, done=True, done_reason=Terminal.BLOCKED)
        if self._steps >= spec.max_steps:
            return EnvStep(self._stacked(), collision=False, done=True, done_reason=Terminal.TIME_LIMIT)
        return EnvStep(self._stacked(), collision=False, done=False, done_reason=None)

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
    "reaction_delay_steps": st.integers(0, 4),
    "speed_min": st.sampled_from([0.0, 2.0]),
    "check_horizon_s": st.sampled_from([0.3, 1.3, 3.0]),
    "max_steps": st.integers(1, 150),
    "blocked_timeout_s": st.sampled_from([0.5, 5.0]),
})


@settings(max_examples=40, deadline=None)
@given(corridor_variants, st.integers(1, 3), st.integers(0, 2**63 - 2))
def test_corridor_episodes_match_the_reference_world_bit_for_bit(fields, stack_frames, seed):
    spec = CorridorWorldSpec(**fields)
    got = run_episode(CorridorWorld(spec, stack_frames=stack_frames), seed)
    want = run_episode(ReferenceCorridorWorld(spec, stack_frames=stack_frames), seed)
    assert got.observations.shape == want.observations.shape
    assert got.observations.tobytes() == want.observations.tobytes()
    assert got.rewards.tobytes() == want.rewards.tobytes()
    assert got.terminal is want.terminal


def test_corridor_default_corpus_matches_the_reference_world():
    # The benchmark's corridor world, over enough seeds to reach every terminal.
    spec = CorridorWorldSpec()
    terminals = set()
    for seed in range(10):
        got = run_episode(CorridorWorld(spec, stack_frames=3), seed)
        want = run_episode(ReferenceCorridorWorld(spec, stack_frames=3), seed)
        assert got.observations.tobytes() == want.observations.tobytes()
        assert got.rewards.tobytes() == want.rewards.tobytes()
        assert got.terminal is want.terminal
        terminals.add(got.terminal)
    assert terminals == {Terminal.COLLISION, Terminal.TIME_LIMIT}


# --- generation plumbing ----------------------------------------------------


def test_generate_requires_positive_count():
    world = ChainWorld(FOUR_STATES)
    with pytest.raises(ValueError):
        generate_episodes(world, 0, 1)


def test_generate_deterministic_collection():
    world = ChainWorld(FOUR_STATES, max_steps=30)
    eps1, sum1 = generate_episodes(world, 40, 11)
    eps2, sum2 = generate_episodes(world, 40, 11)
    assert sum1 == sum2
    for a, b in zip(eps1, eps2):
        assert np.array_equal(a.observations, b.observations)
        assert np.array_equal(a.rewards, b.rewards)
        assert a.terminal == b.terminal and a.seed == b.seed


def test_generated_episodes_satisfy_trace_invariants():
    world = ChainWorld(FOUR_STATES, max_steps=25)
    eps, summary = generate_episodes(world, 100, 5)
    assert summary.episodes == 100
    assert sum(summary.length_histogram.values()) == 100
    for ep in eps:
        tr = ep.trace()
        nz = [k for k, r in enumerate(tr.rewards) if r == 1]
        if ep.terminal is Terminal.COLLISION:
            assert nz == [ep.steps - 1]
        else:
            assert nz == []


def test_world_fingerprint_distinguishes_specs():
    a = world_fingerprint(ChainWorld(FOUR_STATES))
    b = world_fingerprint(ChainWorld(FOUR_STATES))
    assert a == b
    other = ChainWorldSpec(
        n_states=4,
        hazard=(0.03, 0.05, 0.1, 0.18),
        transition=FOUR_STATES.transition,
        start_distribution=FOUR_STATES.start_distribution,
    )
    assert world_fingerprint(ChainWorld(other)) != a
    assert world_fingerprint(CorridorWorld(CorridorWorldSpec())) != a


# --- persistence ------------------------------------------------------------


def small_corpus():
    world = ChainWorld(FOUR_STATES, max_steps=15, stack_frames=2)
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
        assert np.array_equal(a.rewards, b.rewards)
        assert a.observations == pytest.approx(b.observations, rel=1e-8)


def test_save_is_idempotent_after_reload(tmp_path):
    # Text precision round-trips: save(load(save(x))) == save(x).
    eps, fp = small_corpus()
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_episodes(p1, eps, fp)
    loaded, _ = load_episodes(p1)
    save_episodes(p2, loaded, fp)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_rejects_bad_files(tmp_path):
    eps, fp = small_corpus()
    good = tmp_path / "good.jsonl"
    save_episodes(good, eps, fp)
    lines = good.read_text().splitlines()

    missing_header = tmp_path / "no_header.jsonl"
    missing_header.write_text("\n".join(lines[1:]) + "\n")
    with pytest.raises(SchemaError):
        load_episodes(missing_header)

    truncated = tmp_path / "truncated.jsonl"
    truncated.write_text("\n".join(lines[:-2]) + "\n")
    with pytest.raises(SchemaError):
        load_episodes(truncated)

    garbage = tmp_path / "garbage.jsonl"
    garbage.write_text(lines[0] + "\nnot json\n")
    with pytest.raises(SchemaError):
        load_episodes(garbage)

    import json

    wrong_version = tmp_path / "version.jsonl"
    header = json.loads(lines[0])
    header["h"]["version"] = 99
    wrong_version.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    with pytest.raises(SchemaError):
        load_episodes(wrong_version)


def test_load_rejects_bad_collision_flag(tmp_path):
    eps, fp = small_corpus()
    path = tmp_path / "eps.jsonl"
    save_episodes(path, eps, fp)
    lines = path.read_text().splitlines()
    import json

    for idx, line in enumerate(lines):
        doc = json.loads(line)
        if "s" in doc:
            doc["c"] = 2
            lines[idx] = json.dumps(doc)
            break
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaError):
        load_episodes(bad)


def test_episode_validation():
    with pytest.raises(ValueError):
        Episode(
            observations=np.zeros((3, 2)),
            rewards=np.array([1, 0, 0]),  # collision must be final
            terminal=Terminal.COLLISION,
            seed=0,
        )
    with pytest.raises(ValueError):
        Episode(
            observations=np.zeros((3, 2)),
            rewards=np.array([0, 0, 1]),
            terminal=Terminal.TIME_LIMIT,  # flag disagrees with terminal
            seed=0,
        )
    with pytest.raises(ValueError):
        Episode(
            observations=np.zeros((2, 2)),
            rewards=np.array([0, 0, 0]),  # length mismatch
            terminal=Terminal.TIME_LIMIT,
            seed=0,
        )
