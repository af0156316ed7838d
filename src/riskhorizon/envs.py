"""Desk-scale environments whose episodes end in collision, timeout, or deadlock.

Two worlds share one interface. The chain world is a finite Markov chain
with per-state collision hazards; its cumulative collision probabilities
have an exact dynamic-programming solution, which makes it the verification
bed. The corridor world is a one-dimensional ring road with stochastic
slower traffic and a braking ego policy with delayed reactions; it produces
the rare-ish, temporally extended collisions the estimator is meant for.

A world is one frozen value (`ChainWorld`, `CorridorWorld`) whose fields
are its `env` config keys other than `kind`; equal worlds roll the same
episodes, and `world_fingerprint` hashes the kind and the fields.

A world rolls a batch of episodes in lockstep (`rollout`): the state of
every episode still running is held in arrays, one row per episode, each
step advances them all, and an episode leaves the arrays on the step that
ends it. The end reason (collision, time limit or deadlock) is the only
record of whether, and so on which step, an episode collided. Each episode
reads its own `PCG64(seed)` stream (`Draws`), so it is a function of its
seed alone, whatever batch it is rolled in. The policy is internal to each
world: the learner only observes. Frame stacking happens here too, so an
observation is always the concatenation of the most recent `stack_frames`
feature frames (the first frame repeated).
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .artifacts import canonical_json
from .episodes import Episode, Terminal

CORRIDOR_FRAME_DIM = 8
# Far above the presets' 1 and 3 frames, and low enough that an observation
# row stays small: a huge count would otherwise fail in the first rollout with
# an OverflowError or a memory error rather than as a rejected value.
MAX_STACK_FRAMES = 1024
# Episodes one `gen` may roll. Their seeds are drawn up front, so a mistyped
# huge count would otherwise fail allocating them.
MAX_EPISODES = 1_000_000
# Episodes rolled in lockstep at a time. It bounds a rollout's arrays (per
# episode a word block, the state and the frames so far) whatever the count.
ROLLOUT_BATCH = 512
# Raw words read ahead per episode; a corridor step takes at most
# _CORRIDOR_STEP_WORDS of them.
WORD_BLOCK = 256
# Reaction delays are drawn as integers(0, delay + 1) by 32-bit Lemire
# rejection (Draws.bounded), which covers ranges up to 2**32 - 1 values.
MAX_REACTION_DELAY = 2**32 - 2

# Fixed corridor constants; the tunable surface is the fields of CorridorWorld.
_EGO_ACCEL = 2.5  # m/s^2 back toward target speed
_CAR_GAP = 2.0  # m, bumper-to-bumper distance that counts as a collision
_SAFETY_MARGIN = 4.0  # m, braking starts when the predicted gap dips below this
_SENSING_RANGE = 60.0  # m, obstacles beyond this are invisible
_SPEED_CHANGE_PROB = 0.02  # per obstacle per step
_MAX_OBSTACLES = 12
_INITIAL_OBSTACLES = 3
_STOPPED_EPS = 1e-9
# A spawn check and speed, then a check and speed per obstacle.
_CORRIDOR_STEP_WORDS = 2 + 2 * _MAX_OBSTACLES
_SLOTS = np.arange(_MAX_OBSTACLES)

_UINT32_MAX = 0xFFFFFFFF
_DOUBLE_UNIT = 1.0 / 9007199254740992.0  # 2**-53


class Draws:
    """One `PCG64(seed)` stream per row, read as raw 64-bit words in blocks.

    Values come from the words by the rules numpy's `Generator` applies to
    the same stream, so row r gives what `np.random.default_rng(seeds[r])`
    gives when called the same way:

    - `double` is `random()`: (w >> 11) * 2**-53 for the next word w;
    - `uniform(low, high)` is low + (high - low) * double;
    - `bounded(rng)` is `integers(0, rng + 1)` for rng <= 2**32 - 2: 32-bit
      Lemire rejection on 32-bit halves. A fresh word gives its lower half
      and keeps its upper half for the next 32-bit draw (PCG64's cached
      half, which `double` leaves alone); rng == 0 takes no draw.

    `ahead`, `double` and `uniform` read words that `reserve` made ready;
    `bounded` reserves its own, since a rejection takes another. The rules rely only
    on PCG64's word stream, which NumPy keeps stable (NEP 19), while
    `Generator`'s distributions may change; the tests compare them with the
    installed `Generator`. Every `rows` argument holds distinct rows.
    """

    def __init__(self, seeds):
        self.seeds = list(seeds)
        self.sources = [np.random.PCG64(seed) for seed in self.seeds]
        n = len(self.seeds)
        self.words = np.empty((n, WORD_BLOCK), np.uint64)
        self._flat = self.words.reshape(-1)
        self.pos = np.full(n, WORD_BLOCK)  # each row's next unread word
        self.fetched = np.zeros(n, np.int64)  # words taken from each source
        self.has_half = np.zeros(n, bool)
        self.half = np.zeros(n, np.uint64)

    def reserve(self, rows: np.ndarray, need: int) -> None:
        """Make at least `need` (at most WORD_BLOCK) unread words ready in each row."""

        for r in rows[self.pos[rows] > WORD_BLOCK - need].tolist():
            left = WORD_BLOCK - self.pos[r]
            self.words[r, :left] = self.words[r, self.pos[r]:]
            self.words[r, left:] = self.sources[r].random_raw(WORD_BLOCK - left)
            self.fetched[r] += WORD_BLOCK - left
            self.pos[r] = 0

    def ahead(self, rows: np.ndarray, n: int) -> np.ndarray:
        """As doubles, each row's next n words (reserved), left unread."""

        at = (rows * WORD_BLOCK + self.pos[rows])[:, None] + np.arange(n)
        return (self._flat[at] >> np.uint64(11)) * _DOUBLE_UNIT

    def skip(self, rows: np.ndarray, used: np.ndarray) -> None:
        """Mark the next used[i] words of rows[i] read."""

        self.pos[rows] += used

    def double(self, rows: np.ndarray) -> np.ndarray:
        """random() for each row."""

        u = self.ahead(rows, 1)[:, 0]
        self.pos[rows] += 1
        return u

    def uniform(self, rows: np.ndarray, low: float, high: float) -> np.ndarray:
        """uniform(low, high) for each row."""

        return _uniform(self.double(rows), low, high)

    def bounded(self, rows: np.ndarray, rng: int) -> np.ndarray:
        """integers(0, rng + 1) for each row."""

        out = np.zeros(len(rows), np.uint64)
        if rng and len(rows):
            excl = np.uint64(rng + 1)
            threshold = (_UINT32_MAX - rng) % (rng + 1)
            todo = np.arange(len(rows))
            while todo.size:
                m = self._uint32(rows[todo]) * excl
                out[todo] = m >> np.uint64(32)
                todo = todo[(m & np.uint64(_UINT32_MAX)) < threshold]
        return out.astype(np.int64)

    def _uint32(self, rows: np.ndarray) -> np.ndarray:
        cached = self.has_half[rows]
        out = self.half[rows]
        fresh = rows[~cached]
        self.reserve(fresh, 1)
        words = self._flat[fresh * WORD_BLOCK + self.pos[fresh]]
        self.pos[fresh] += 1
        out[~cached] = words & np.uint64(_UINT32_MAX)
        self.half[fresh] = words >> np.uint64(32)
        self.has_half[rows] = ~cached
        return out


def _uniform(u: np.ndarray, low: float, high: float) -> np.ndarray:
    # Generator.uniform's rule for a double u.
    return low + (high - low) * u


class _Recorder:
    """The frames of a batch of episodes, and each episode once it ends.

    Row t of an episode stacks its frames t - stack_frames + 1 .. t, the
    first frame standing in for those before it. The frame buffer grows with
    the longest episode so far, never past max_steps frames.
    """

    def __init__(self, seeds: list[int], width: int, stack_frames: int, max_steps: int):
        self.seeds = seeds
        self.stack_frames = stack_frames
        self.max_steps = max_steps
        self.frames = np.empty((len(seeds), min(max_steps, 64), width))
        self.episodes: list[Episode] = [None] * len(seeds)  # type: ignore[list-item]

    def record(self, slot: np.ndarray, t: int, frame: np.ndarray) -> None:
        """Frame t of the episodes in `slot`."""

        if t == self.frames.shape[1]:
            grown = np.empty((len(self.seeds), min(2 * t, self.max_steps), self.frames.shape[2]))
            grown[:, :t] = self.frames
            self.frames = grown
        self.frames[slot, t] = frame

    def end(self, slot: np.ndarray, steps: int, terminal: Terminal) -> None:
        """The episodes in `slot` ended on step `steps`: they hold that many rows."""

        if slot.size:
            window = np.maximum(np.arange(steps)[:, None] + np.arange(1 - self.stack_frames, 1), 0)
            for s in slot.tolist():
                rows = self.frames[s][window].reshape(steps, -1)
                self.episodes[s] = Episode(observations=rows, terminal=terminal, seed=self.seeds[s])


def _check_stack_frames(stack_frames: int) -> None:
    if not 1 <= stack_frames <= MAX_STACK_FRAMES:
        raise ValueError(f"stack_frames must be >= 1 and at most {MAX_STACK_FRAMES}")


@dataclass(frozen=True)
class ChainWorld:
    """Finite Markov chain with per-state collision hazards.

    Stepping from state s collides with probability hazard[s]; otherwise the
    state moves according to the row-stochastic transition matrix. Episodes
    start from start_distribution and end after at most max_steps steps.
    """

    n_states: int
    hazard: tuple[float, ...]
    transition: tuple[tuple[float, ...], ...]
    start_distribution: tuple[float, ...]
    max_steps: int = 100
    stack_frames: int = 1

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
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        _check_stack_frames(self.stack_frames)

    @property
    def obs_dim(self) -> int:
        return self.n_states * self.stack_frames

    def rollout(self, draws: Draws) -> list[Episode]:
        """One episode per row of `draws`, rolled in lockstep, in row order."""

        # States are drawn as Generator.choice(n, p=p) draws them, one
        # random() searched in the normalized cumulative sum, so the random
        # stream is choice's.
        start_cdf = _cdf(self.start_distribution)
        next_cdf = np.array([_cdf(row) for row in self.transition])
        hazard = np.array(self.hazard)
        one_hot = np.eye(self.n_states)
        out = _Recorder(draws.seeds, self.n_states, self.stack_frames, self.max_steps)
        slot = np.arange(len(draws.seeds))  # each live episode's row of draws and out
        draws.reserve(slot, 1)
        state = _search(start_cdf, draws.double(slot))
        out.record(slot, 0, one_hot[state])
        for k in range(1, self.max_steps + 1):
            draws.reserve(slot, 2)
            # The collision state is never observed: frames stay as they were.
            hit = draws.double(slot) < hazard[state]
            out.end(slot[hit], k, Terminal.COLLISION)
            slot, state = slot[~hit], state[~hit]
            state = _search(next_cdf[state], draws.double(slot))
            if k == self.max_steps:
                out.end(slot, k, Terminal.TIME_LIMIT)
            elif slot.size:
                out.record(slot, k, one_hot[state])
            else:
                break
        return out.episodes


def chain_observation(world: ChainWorld, state: int) -> np.ndarray:
    """One-hot encoding of a chain state, tiled over the world's frame stack."""

    frame = np.zeros(world.n_states)
    frame[state] = 1.0
    return np.tile(frame, world.stack_frames)


def _search(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """searchsorted(cdf, u, side="right") for each u, against cdf or its rows."""

    return np.count_nonzero(cdf <= u[:, None], axis=1)


def _cdf(p: tuple[float, ...]) -> np.ndarray:
    cdf = np.cumsum(p)
    return cdf / cdf[-1]


@dataclass(frozen=True)
class CorridorWorld:
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
    stack_frames: int = 3

    def __post_init__(self) -> None:
        # A float field stores an integer as a float, so equal worlds hash alike.
        for f in fields(self):
            if f.type == "float":
                object.__setattr__(self, f.name, float(getattr(self, f.name)))
        if self.lane_length <= 2 * _SENSING_RANGE:
            raise ValueError("lane_length must exceed twice the sensing range")
        if self.target_speed <= 0 or self.brake_decel <= 0:
            raise ValueError("target_speed and brake_decel must be positive")
        if not 0 <= self.reaction_delay_steps <= MAX_REACTION_DELAY:
            raise ValueError(f"reaction_delay_steps must be >= 0 and at most {MAX_REACTION_DELAY}")
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
        _check_stack_frames(self.stack_frames)

    @property
    def obs_dim(self) -> int:
        return CORRIDOR_FRAME_DIM * self.stack_frames

    def rollout(self, draws: Draws) -> list[Episode]:
        """One episode per row of `draws`, rolled in lockstep, in row order."""

        lane, dt = self.lane_length, self.delta_t
        n = len(draws.seeds)
        out = _Recorder(draws.seeds, CORRIDOR_FRAME_DIM, self.stack_frames, self.max_steps)
        slot = np.arange(n)  # each live episode's row of draws and out
        ego_x = np.zeros(n)
        ego_v = np.full(n, self.target_speed)
        # Obstacles in spawn order: columns from count on are unused zeros.
        obs_x = np.zeros((n, _MAX_OBSTACLES))
        obs_v = np.zeros((n, _MAX_OBSTACLES))
        count = np.zeros(n, np.int64)
        # spawn_rate 0 means an empty road, initial traffic included.
        if self.spawn_rate > 0:
            draws.reserve(slot, 2 * _INITIAL_OBSTACLES)
            for j in range(_INITIAL_OBSTACLES):
                ahead = draws.uniform(slot, 0.5 * _SENSING_RANGE, lane - _CAR_GAP)
                obs_x[:, j] = (ego_x + ahead) % lane
                obs_v[:, j] = draws.uniform(slot, self.speed_min, self.speed_max)
            count[:] = _INITIAL_OBSTACLES
        countdown = np.full(n, -1)  # reaction steps left; -1: no danger on the last step
        stopped = np.zeros(n, np.int64)  # steps in a row at a standstill
        gaps = _gaps(obs_x, ego_x, lane)
        out.record(slot, 0, self._frame(ego_x, ego_v, obs_v, gaps, count))
        for k in range(1, self.max_steps + 1):
            # The step's draws in order: a spawn check while there is room
            # and a spawned obstacle's speed, then per obstacle a speed-change
            # check and, on a change, the new speed.
            draws.reserve(slot, _CORRIDOR_STEP_WORDS)
            u = draws.ahead(slot, _CORRIDOR_STEP_WORDS)
            room = count < _MAX_OBSTACLES
            born = np.flatnonzero(room & (u[:, 0] < self.spawn_rate * dt))
            spawn_x = (ego_x[born] + _SENSING_RANGE) % lane
            obs_x[born, count[born]] = spawn_x
            obs_v[born, count[born]] = _uniform(u[born, 1], self.speed_min, self.speed_max)
            gaps[born, count[born]] = (spawn_x - ego_x[born]) % lane
            count[born] += 1
            used = room.astype(np.int64)
            used[born] += 1
            # Obstacle j's check is word used + j + (changes before j): found
            # by iterating from no changes, each pass fixing at least the
            # next change, until the changes no longer move.
            present = _SLOTS < count[:, None]
            first = (np.arange(len(slot)) * _CORRIDOR_STEP_WORDS + used)[:, None] + _SLOTS
            at = first
            while True:
                changed = present & (np.take(u, at) < _SPEED_CHANGE_PROB)
                shifted = first + np.cumsum(changed, axis=1) - changed
                if np.array_equal(shifted, at):
                    break
                at = shifted
            new_v = _uniform(np.take(u, at + 1), self.speed_min, self.speed_max)
            obs_v = np.where(changed, new_v, obs_v)
            draws.skip(slot, used + count + np.count_nonzero(changed, axis=1))

            danger = self._danger(gaps, ego_v, obs_v, present)
            react = np.flatnonzero(danger & (countdown < 0))
            countdown[react] = draws.bounded(slot[react], self.reaction_delay_steps)
            braking = danger & (countdown == 0)
            countdown = np.where(danger, countdown - (countdown > 0), -1)
            # max(0, v) and min(target, v) as Python's max and min pick them.
            slower = ego_v - self.brake_decel * dt
            faster = ego_v + _EGO_ACCEL * dt
            ego_v = np.where(braking, np.where(slower > 0.0, slower, 0.0),
                             np.where(faster < self.target_speed, faster, self.target_speed))
            ego_x = (ego_x + ego_v * dt) % lane
            obs_x = (obs_x + obs_v * dt) % lane

            # The post-move gaps serve both the collision check and the new frame.
            gaps = _gaps(obs_x, ego_x, lane)
            collided = (present & (gaps < _CAR_GAP)).any(axis=1)
            stopped = np.where(ego_v < _STOPPED_EPS, stopped + 1, 0)
            blocked = ~collided & (stopped * dt >= self.blocked_timeout_s)
            out.end(slot[collided], k, Terminal.COLLISION)
            out.end(slot[blocked], k, Terminal.BLOCKED)
            going = ~(collided | blocked)
            if k == self.max_steps:
                out.end(slot[going], k, Terminal.TIME_LIMIT)
                break
            if not going.all():
                if not going.any():
                    break
                slot, ego_x, ego_v, obs_x, obs_v, count, countdown, stopped, gaps = (
                    a[going] for a in (slot, ego_x, ego_v, obs_x, obs_v, count, countdown,
                                       stopped, gaps))
            out.record(slot, k, self._frame(ego_x, ego_v, obs_v, gaps, count))
        return out.episodes

    def _danger(self, gaps, ego_v, obs_v, present) -> np.ndarray:
        """Whether a linear prediction closes the gap to a sensed obstacle, per row."""

        closing = ego_v[:, None] - obs_v
        clearance = gaps - _CAR_GAP - _SAFETY_MARGIN
        with np.errstate(divide="ignore", invalid="ignore"):
            soon = clearance / closing <= self.check_horizon_s
        closing_in = present & (gaps <= _SENSING_RANGE) & (closing > 0.0)
        return (closing_in & ((clearance <= 0.0) | soon)).any(axis=1)

    def _frame(self, ego_x, ego_v, obs_v, gaps, count) -> np.ndarray:
        """Each row's frame: ego speed, the three nearest sensed obstacles
        (gap, relative speed) ordered by gap then speed, ego position."""

        visible = (_SLOTS < count[:, None]) & (gaps <= _SENSING_RANGE)
        # NumPy orders complex values by real part, then imaginary part: the
        # (gap, speed) order, with unseen columns last.
        pairs = np.empty(gaps.shape, complex)
        pairs.real = np.where(visible, gaps, np.inf)
        pairs.imag = obs_v
        nearest = np.sort(pairs, axis=1)[:, :3]
        # Sentinel: an imaginary obstacle at max range moving with us.
        seen = _SLOTS[:3] < np.count_nonzero(visible, axis=1)[:, None]
        frame = np.empty((len(ego_x), CORRIDOR_FRAME_DIM))
        frame[:, 0] = ego_v / self.target_speed
        frame[:, 1:7:2] = np.where(seen, nearest.real / _SENSING_RANGE, 1.0)
        frame[:, 2:7:2] = np.where(seen, (nearest.imag - ego_v[:, None]) / self.target_speed, 0.0)
        frame[:, 7] = ego_x / self.lane_length
        return frame


def _gaps(obs_x: np.ndarray, ego_x: np.ndarray, lane: float) -> np.ndarray:
    # Forward (ring) distance from the ego to each obstacle column.
    return (obs_x - ego_x[:, None]) % lane


@dataclass
class GenerationSummary:
    episodes: int
    collisions: int
    collision_fraction: float
    length_histogram: dict[int, int] = field(default_factory=dict)


def generate_episodes(world, count: int, master_seed: int) -> tuple[list[Episode], GenerationSummary]:
    """Roll `count` independently seeded episodes from one world.

    All seeds are drawn from `master_seed` up front and each episode is a
    function of its own seed alone; batches of ROLLOUT_BATCH seeds are
    rolled in lockstep, one after another, and the episodes come back in
    seed order.
    """

    if not 1 <= count <= MAX_EPISODES:
        raise ValueError(f"count must be >= 1 and at most {MAX_EPISODES}")
    seeds = np.random.default_rng(master_seed).integers(0, 2**63 - 1, size=count).tolist()
    episodes: list[Episode] = []
    for lo in range(0, count, ROLLOUT_BATCH):
        episodes += world.rollout(Draws(seeds[lo:lo + ROLLOUT_BATCH]))
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

    doc = {"kind": "chain" if isinstance(world, ChainWorld) else "corridor", **asdict(world)}
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()[:16]
