"""Learning targets for cumulative collision-probability heads.

Head i of the estimator predicts the probability of a collision within the
next i steps. Its targets are built from an episode's binary collision
reward, which is 1 on the final step of a collision episode and 0 elsewhere,
so a target reads only the episode's length, whether it ends in a collision
and the clamped bootstrap snapshot: a truncated-lambda blend of fixed-window
Monte Carlo and bootstrapped n-step returns. Because the event is terminal
and rewards are binary, every target lies in [0, 1]. The scalar per-window
definitions in `tests/returns_reference.py` are the spec these vectorized
functions are tested against.

Windows on truncated (non-collision) episodes have unknown outcomes past the
recorded steps. The rule used throughout: a depth-n component at time t is
computable only if a collision occurs within steps t+1..t+n, or the landing
state s_{t+n} is a recorded observation. Anything else is masked invalid,
never zero-filled. `window_known` and `window_collides` state that rule once,
vectorized over rows of episodes laid end to end (`corpus_rows`); targets,
the replay index and evaluation all read it from there.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .episodes import Episode

# Far above the paper's 20 heads, and low enough that per-head work (one
# sub-network each, [rows, n_heads] snapshots and targets) stays bounded: a
# mistyped huge count would otherwise build the estimator for minutes.
MAX_HEADS = 1024


@dataclass(frozen=True)
class HorizonConfig:
    """Discretization of the prediction horizon.

    delta_t: seconds per step.
    n_heads: number of heads; head i covers i*delta_t seconds.
    lam: lambda-return mixing coefficient in [0, 1].
    trunc_n: maximum bootstrap depth; depths beyond it get no weight.
    """

    delta_t: float
    n_heads: int
    lam: float
    trunc_n: int

    def __post_init__(self) -> None:
        if not self.delta_t > 0:
            raise ValueError("delta_t must be positive")
        if not 1 <= self.n_heads <= MAX_HEADS:
            raise ValueError(f"n_heads must be >= 1 and at most {MAX_HEADS}")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("lam must lie in [0, 1]")
        if not 1 <= self.trunc_n <= self.n_heads:
            raise ValueError("trunc_n must lie in [1, n_heads]")


@dataclass
class TargetMatrix:
    """Per-timestep, per-head targets with a validity mask.

    values[t, i-1] is the lambda-return target for head i anchored at step t;
    it is meaningful only where valid[t, i-1] is True. Every valid value lies
    in [0, 1].
    """

    values: np.ndarray
    valid: np.ndarray

    def __post_init__(self) -> None:
        if self.values.shape != self.valid.shape:
            raise ValueError("values and valid must have matching shapes")


def lambda_weights(i: int, lam: float, trunc_n: int) -> np.ndarray:
    """Weights over depths 1..min(i, trunc_n) for the truncated lambda blend.

    w_n = (1-lam) * lam^(n-1) for n < m and w_m = lam^(m-1), m = min(i,
    trunc_n): the geometric tail beyond the cut is folded onto the deepest
    depth, so the weights are nonnegative and sum to exactly 1.
    """

    if i < 1:
        raise ValueError("head index i must be >= 1")
    if trunc_n < 1:
        raise ValueError("trunc_n must be >= 1")
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lam must lie in [0, 1]")
    m = min(i, trunc_n)
    w = np.empty(m)
    w[: m - 1] = (1.0 - lam) * lam ** np.arange(m - 1)
    w[m - 1] = lam ** (m - 1)
    return w


def corpus_rows(episodes: Sequence[Episode]) -> tuple[np.ndarray, np.ndarray]:
    """Per row of the episodes laid end to end: the row of its episode's
    final recorded state, and whether that episode ends in a collision."""

    steps = np.array([ep.steps for ep in episodes], dtype=np.int64)
    collided = np.array([ep.ends_in_collision for ep in episodes], dtype=bool)
    return np.repeat(np.cumsum(steps) - 1, steps), np.repeat(collided, steps)


def window_known(rows, last_rows, collided, length):
    """Whether the window of `length` steps after each anchor row has a known
    outcome: it holds its episode's collision, or it closes on a recorded
    state. Arguments broadcast; equal to the reference `mc_return`
    (tests/returns_reference.py) not raising."""

    return collided | (rows + length <= last_rows)


def window_collides(rows, last_rows, collided, length):
    """Whether the window of `length` steps after each anchor row holds its
    episode's collision: the reference `mc_return`
    (tests/returns_reference.py) is 1 there. Arguments broadcast."""

    return collided & (rows + length > last_rows)


@functools.lru_cache(maxsize=32)
def _weight_table(cfg: HorizonConfig) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (depth_weights, deepest) for a horizon.

    depth_weights[n-1, i-1] is depth n's weight for head i (zero past the
    head's own depths); deepest[i-1] is the deepest depth that actually
    carries weight for head i. Shallower depths land on earlier states, so
    deepest alone decides validity on truncation.
    """

    weight_rows = [lambda_weights(i, cfg.lam, cfg.trunc_n) for i in range(1, cfg.n_heads + 1)]
    max_depth = max(len(w) for w in weight_rows)
    depth_weights = np.zeros((max_depth, cfg.n_heads))
    for i, w in enumerate(weight_rows):
        depth_weights[: len(w), i] = w
    deepest = np.array([int(np.max(np.nonzero(w)[0])) + 1 for w in weight_rows])
    depth_weights.flags.writeable = False
    deepest.flags.writeable = False
    return depth_weights, deepest


def lambda_targets(
    snapshot: np.ndarray,
    rows: np.ndarray,
    last_rows: np.ndarray,
    collided: np.ndarray,
    cfg: HorizonConfig,
) -> TargetMatrix:
    """Targets anchored at chosen rows of a packed bootstrap snapshot.

    snapshot holds clamped head outputs ([0, 1]) for the recorded states of
    one or more episodes, each episode's states in consecutive rows. For
    every anchor k, rows[k] is its row, last_rows[k] the row of its
    episode's final recorded state, and collided[k] whether that episode
    ends in a collision. Returns the [len(rows), n_heads] target matrix of
    those anchors; equal, entry for entry, to the reference `lambda_return`
    (tests/returns_reference.py).
    """

    rows = np.asarray(rows, dtype=np.int64)
    last_rows = np.asarray(last_rows, dtype=np.int64)
    collided = np.asarray(collided, dtype=bool)
    depth_weights, deepest = _weight_table(cfg)
    n_heads = cfg.n_heads
    values = np.zeros((rows.shape[0], n_heads))
    component = np.empty_like(values)
    for n, weight in enumerate(depth_weights, start=1):
        # Depth-n component per (anchor, head): with a recorded landing state
        # it is the bootstrap for heads i > n and the zero reward sum at
        # i = n; past the end of a collision episode the window holds the
        # collision and the component is exactly 1.
        landed = rows + n <= last_rows
        component.fill(0.0)
        if n < n_heads:
            component[landed, n:] = snapshot[rows[landed] + n, : n_heads - n]
        component[window_collides(rows, last_rows, collided, n)] = 1.0
        # Accumulating depth by depth in this order reproduces the scalar
        # blend's rounding exactly.
        component *= weight
        values += component

    # components and weights keep the exact value in [0, 1]; the float
    # accumulation can still land one ulp outside
    np.clip(values, 0.0, 1.0, out=values)

    valid = window_known(rows[:, None], last_rows[:, None], collided[:, None], deepest)
    values[~valid] = 0.0
    return TargetMatrix(values=values, valid=valid)


# No program path calls this; it stays until perfbench traces `lambda_targets`.
def targets_from_estimates(
    episode: Episode, estimates: np.ndarray, cfg: HorizonConfig
) -> TargetMatrix:
    """Full target matrix for one episode given a bootstrap snapshot.

    estimates[k] holds the estimator's head outputs at the k-th recorded
    state; they are clamped to [0, 1] before use. The snapshot is treated as
    a constant (no gradient flows through targets).
    """

    estimates = np.asarray(estimates, dtype=np.float64)
    steps = episode.steps
    if estimates.shape != (steps, cfg.n_heads):
        raise ValueError(
            f"estimates must be [{steps}, {cfg.n_heads}], got {estimates.shape}"
        )
    last_rows, collided = corpus_rows([episode])
    return lambda_targets(np.clip(estimates, 0.0, 1.0), np.arange(steps), last_rows, collided, cfg)

