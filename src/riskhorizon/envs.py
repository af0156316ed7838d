"""Desk-scale environments whose episodes end in collision, timeout, or deadlock.

Two worlds share one interface. The chain world is a finite Markov chain
with per-state collision hazards; its cumulative collision probabilities
have an exact dynamic-programming solution, which makes it the verification
bed. The corridor world is a one-dimensional ring road with stochastic
slower traffic and a braking ego policy with delayed reactions; it produces
the rare-ish, temporally extended collisions the estimator is meant for.

A step returns the next observation and, on the step that ends the
episode, the end reason (collision, time limit or deadlock); the end reason
is the only record of whether, and so on which step, the episode collided.
The policy is internal to each world: the learner only observes. Frame
stacking happens here too, so an observation is always the concatenation of
the most recent `stack_frames` feature frames (the reset frame repeated).
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field

import numpy as np

from .artifacts import canonical_json
from .episodes import Episode, Terminal
from .parallel import map_ranges

CORRIDOR_FRAME_DIM = 8
# Far above the presets' 1 and 3 frames, and low enough that an observation
# row stays small: a huge count would otherwise fail in the first reset with
# an OverflowError or a memory error rather than as a rejected value.
MAX_STACK_FRAMES = 1024
# Episodes one `gen` may roll. Their seeds are drawn up front, so a mistyped
# huge count would otherwise fail allocating them.
MAX_EPISODES = 1_000_000

# Fixed corridor constants; the tunable surface lives in CorridorWorldSpec.
_EGO_ACCEL = 2.5  # m/s^2 back toward target speed
_CAR_GAP = 2.0  # m, bumper-to-bumper distance that counts as a collision
_SAFETY_MARGIN = 4.0  # m, braking starts when the predicted gap dips below this
_SENSING_RANGE = 60.0  # m, obstacles beyond this are invisible
_SPEED_CHANGE_PROB = 0.02  # per obstacle per step
_MAX_OBSTACLES = 12
_INITIAL_OBSTACLES = 3
_STOPPED_EPS = 1e-9


class EnvStateError(RuntimeError):
    """step() was called before reset() or after the episode ended."""


@dataclass(frozen=True)
class EnvStep:
    """What one reset or step returns; done_reason is set once the episode ends."""

    observation: np.ndarray
    done_reason: Terminal | None = None


@dataclass(frozen=True)
class ChainWorldSpec:
    """Finite Markov chain with per-state collision hazards.

    Stepping from state s collides with probability hazard[s]; otherwise the
    state moves according to the row-stochastic transition matrix. Episodes
    start from start_distribution.
    """

    n_states: int
    hazard: tuple[float, ...]
    transition: tuple[tuple[float, ...], ...]
    start_distribution: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "hazard", tuple(float(h) for h in self.hazard))
        object.__setattr__(
            self, "transition", tuple(tuple(float(p) for p in row) for row in self.transition)
        )
        object.__setattr__(
            self, "start_distribution", tuple(float(p) for p in self.start_distribution)
        )
        s = self.n_states
        if s < 1:
            raise ValueError("need at least one state")
        if len(self.hazard) != s or len(self.transition) != s or len(self.start_distribution) != s:
            raise ValueError("hazard, transition, start_distribution must all cover n_states")
        if any(not 0.0 <= h <= 1.0 for h in self.hazard):
            raise ValueError("hazards are probabilities")
        for row in self.transition:
            if len(row) != s:
                raise ValueError("transition matrix must be square")
            if any(p < 0.0 for p in row) or abs(sum(row) - 1.0) > 1e-12:
                raise ValueError("transition rows must be distributions summing to 1")
        if any(p < 0.0 for p in self.start_distribution) or abs(sum(self.start_distribution) - 1.0) > 1e-12:
            raise ValueError("start_distribution must sum to 1")


def chain_observation(spec: ChainWorldSpec, state: int, stack_frames: int = 1) -> np.ndarray:
    """One-hot encoding of a chain state, tiled over the frame stack."""

    frame = np.zeros(spec.n_states)
    frame[state] = 1.0
    return np.tile(frame, stack_frames)


class ChainWorld:
    def __init__(self, spec: ChainWorldSpec, max_steps: int = 100, stack_frames: int = 1):
        if max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if not 1 <= stack_frames <= MAX_STACK_FRAMES:
            raise ValueError(f"stack_frames must be >= 1 and at most {MAX_STACK_FRAMES}")
        self.spec = spec
        self.max_steps = max_steps
        self.stack_frames = stack_frames
        # States are drawn as Generator.choice(n, p=p) draws them, one
        # random() searched in the normalized cumulative sum, so the random
        # stream is choice's; the sums are built once here.
        self._start_cdf = _cdf(spec.start_distribution)
        self._next_cdf = [_cdf(row) for row in spec.transition]
        self._state_frames = [chain_observation(spec, s).tolist() for s in range(spec.n_states)]
        self._rng: np.random.Generator | None = None
        self._active = False

    @property
    def obs_dim(self) -> int:
        return self.spec.n_states * self.stack_frames

    def reset(self, seed: int) -> EnvStep:
        self._rng = np.random.default_rng(seed)
        self._state = int(self._start_cdf.searchsorted(self._rng.random(), side="right"))
        # The last stack_frames frames, oldest first, as one flat list.
        self._window = self._state_frames[self._state] * self.stack_frames
        self._steps = 0
        self._active = True
        return EnvStep(np.array(self._window))

    def step(self) -> EnvStep:
        if not self._active or self._rng is None:
            raise EnvStateError("chain world: step before reset or after done")
        self._steps += 1
        if self._rng.random() < self.spec.hazard[self._state]:
            # The collision state is never observed: frames stay as they were.
            self._active = False
            return EnvStep(np.array(self._window), Terminal.COLLISION)
        cdf = self._next_cdf[self._state]
        self._state = int(cdf.searchsorted(self._rng.random(), side="right"))
        self._window = self._window[self.spec.n_states:] + self._state_frames[self._state]
        observation = np.array(self._window)
        if self._steps >= self.max_steps:
            self._active = False
            return EnvStep(observation, Terminal.TIME_LIMIT)
        return EnvStep(observation)


def _cdf(p: tuple[float, ...]) -> np.ndarray:
    cdf = np.cumsum(p)
    return cdf / cdf[-1]


@dataclass(frozen=True)
class CorridorWorldSpec:
    """Ring corridor with slower, occasionally erratic traffic ahead.

    The ego cruises at target_speed and brakes (after a random reaction
    delay of 0..reaction_delay_steps steps) whenever a linear prediction
    over check_horizon_s seconds closes the gap to a sensed obstacle.
    Obstacles spawn at the sensing edge at spawn_rate per second with
    speeds in [speed_min, speed_max] and occasionally resample their speed,
    which is what makes collisions possible despite the braking policy.
    """

    lane_length: float = 400.0
    target_speed: float = 12.0
    brake_decel: float = 4.0
    reaction_delay_steps: int = 2
    check_horizon_s: float = 1.3
    spawn_rate: float = 0.5
    speed_min: float = 0.0
    speed_max: float = 8.0
    delta_t: float = 0.1
    max_steps: int = 300
    blocked_timeout_s: float = 5.0

    def __post_init__(self) -> None:
        if self.lane_length <= 2 * _SENSING_RANGE:
            raise ValueError("lane_length must exceed twice the sensing range")
        if self.target_speed <= 0 or self.brake_decel <= 0:
            raise ValueError("target_speed and brake_decel must be positive")
        if self.reaction_delay_steps < 0:
            raise ValueError("reaction_delay_steps must be >= 0")
        if self.check_horizon_s <= 0:
            raise ValueError("check_horizon_s must be positive")
        if self.spawn_rate < 0:
            raise ValueError("spawn_rate must be >= 0")
        if not 0.0 <= self.speed_min <= self.speed_max:
            raise ValueError("need 0 <= speed_min <= speed_max")
        if self.speed_max >= self.target_speed:
            raise ValueError("obstacles must be slower than the ego target speed")
        if self.delta_t <= 0:
            raise ValueError("delta_t must be positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if self.blocked_timeout_s <= 0:
            raise ValueError("blocked_timeout_s must be positive")


class CorridorWorld:
    def __init__(self, spec: CorridorWorldSpec, stack_frames: int = 3):
        if not 1 <= stack_frames <= MAX_STACK_FRAMES:
            raise ValueError(f"stack_frames must be >= 1 and at most {MAX_STACK_FRAMES}")
        self.spec = spec
        self.stack_frames = stack_frames
        self._rng: np.random.Generator | None = None
        self._active = False

    @property
    def obs_dim(self) -> int:
        return CORRIDOR_FRAME_DIM * self.stack_frames

    def reset(self, seed: int) -> EnvStep:
        spec = self.spec
        self._rng = np.random.default_rng(seed)
        self._ego_x = 0.0
        self._ego_v = spec.target_speed
        self._obstacle_x: list[float] = []
        self._obstacle_v: list[float] = []
        # spawn_rate 0 means an empty road, initial traffic included.
        initial = _INITIAL_OBSTACLES if spec.spawn_rate > 0 else 0
        for _ in range(initial):
            ahead = self._rng.uniform(0.5 * _SENSING_RANGE, spec.lane_length - _CAR_GAP)
            self._obstacle_x.append((self._ego_x + ahead) % spec.lane_length)
            self._obstacle_v.append(self._rng.uniform(spec.speed_min, spec.speed_max))
        self._steps = 0
        self._stopped_steps = 0
        self._react_countdown: int | None = None
        # The last stack_frames frames, oldest first, as one flat list.
        self._window = self._frame(self._gaps()) * self.stack_frames
        self._active = True
        return EnvStep(np.array(self._window))

    def step(self) -> EnvStep:
        if not self._active or self._rng is None:
            raise EnvStateError("corridor world: step before reset or after done")
        spec = self.spec
        rng = self._rng
        self._steps += 1

        if len(self._obstacle_x) < _MAX_OBSTACLES and rng.random() < spec.spawn_rate * spec.delta_t:
            self._obstacle_x.append((self._ego_x + _SENSING_RANGE) % spec.lane_length)
            self._obstacle_v.append(rng.uniform(spec.speed_min, spec.speed_max))
        for j in range(len(self._obstacle_v)):
            if rng.random() < _SPEED_CHANGE_PROB:
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
            self._ego_v = min(spec.target_speed, self._ego_v + _EGO_ACCEL * spec.delta_t)

        self._ego_x = (self._ego_x + self._ego_v * spec.delta_t) % spec.lane_length
        for j in range(len(self._obstacle_x)):
            self._obstacle_x[j] = (self._obstacle_x[j] + self._obstacle_v[j] * spec.delta_t) % spec.lane_length

        # The post-move gaps serve both the collision check and the new frame.
        gaps = self._gaps()
        if any(gap < _CAR_GAP for gap in gaps):
            self._active = False
            return EnvStep(np.array(self._window), Terminal.COLLISION)

        if self._ego_v < _STOPPED_EPS:
            self._stopped_steps += 1
        else:
            self._stopped_steps = 0
        self._window = self._window[CORRIDOR_FRAME_DIM:] + self._frame(gaps)
        observation = np.array(self._window)
        if self._stopped_steps * spec.delta_t >= spec.blocked_timeout_s:
            self._active = False
            return EnvStep(observation, Terminal.BLOCKED)
        if self._steps >= spec.max_steps:
            self._active = False
            return EnvStep(observation, Terminal.TIME_LIMIT)
        return EnvStep(observation)

    @property
    def max_steps(self) -> int:
        return self.spec.max_steps

    def _gaps(self) -> list[float]:
        # Forward (ring) distance from the ego to each obstacle.
        return [(x - self._ego_x) % self.spec.lane_length for x in self._obstacle_x]

    def _danger_ahead(self) -> bool:
        spec = self.spec
        for gap, v_obs in zip(self._gaps(), self._obstacle_v):
            if gap > _SENSING_RANGE:
                continue
            closing = self._ego_v - v_obs
            clearance = gap - _CAR_GAP - _SAFETY_MARGIN
            if clearance <= 0.0:
                if closing > 0.0:
                    return True
            elif closing > 0.0 and clearance / closing <= spec.check_horizon_s:
                return True
        return False

    def _frame(self, gaps: list[float]) -> list[float]:
        spec = self.spec
        ego_v = self._ego_v
        frame = [ego_v / spec.target_speed]
        visible = sorted((gap, v) for gap, v in zip(gaps, self._obstacle_v) if gap <= _SENSING_RANGE)
        for gap, v_obs in visible[:3]:
            frame += (gap / _SENSING_RANGE, (v_obs - ego_v) / spec.target_speed)
        # Sentinel: an imaginary obstacle at max range moving with us.
        frame += (1.0, 0.0) * (3 - min(len(visible), 3))
        frame.append(self._ego_x / spec.lane_length)
        return frame


@dataclass
class GenerationSummary:
    episodes: int
    collisions: int
    collision_fraction: float
    length_histogram: dict[int, int] = field(default_factory=dict)


def run_episode(world, seed: int) -> Episode:
    """Roll one episode to termination and record it.

    Row t of the record is the observation the step t+1 started from; the
    state reached by the final step is not recorded, and the step's
    done_reason becomes the episode's terminal.
    """

    result = world.reset(seed)
    observations: list[np.ndarray] = []
    while result.done_reason is None:
        observations.append(result.observation)
        result = world.step()
    return Episode(observations=np.array(observations), terminal=result.done_reason, seed=seed)


def generate_episodes(world, count: int, master_seed: int) -> tuple[list[Episode], GenerationSummary]:
    """Roll `count` independently seeded episodes from one world.

    All seeds are drawn from `master_seed` up front and each episode is a
    function of its own seed alone, so the episodes are rolled on every CPU
    this process may use (see `parallel.map_ranges`) when count x max_steps
    makes that pay, and come back in seed order: the list does not depend on
    the worker count.
    """

    if not 1 <= count <= MAX_EPISODES:
        raise ValueError(f"count must be >= 1 and at most {MAX_EPISODES}")
    seeds = np.random.default_rng(master_seed).integers(0, 2**63 - 1, size=count).tolist()
    episodes: list[Episode] = []
    map_ranges(lambda lo, hi: [run_episode(world, s) for s in seeds[lo:hi]],
               count, count * world.max_steps, episodes.extend)
    collisions = sum(ep.ends_in_collision for ep in episodes)
    hist: dict[int, int] = {}
    for ep in episodes:
        hist[ep.steps] = hist.get(ep.steps, 0) + 1
    summary = GenerationSummary(
        episodes=count,
        collisions=collisions,
        collision_fraction=collisions / count,
        length_histogram=dict(sorted(hist.items())),
    )
    return episodes, summary


def world_fingerprint(world) -> str:
    """Short stable hash of everything that shapes a world's episodes."""

    chain = isinstance(world, ChainWorld)
    doc = {"kind": "chain" if chain else "corridor", **asdict(world.spec),
           "stack_frames": world.stack_frames}
    if chain:
        doc["max_steps"] = world.max_steps
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()[:16]
