"""Scalar per-window returns: the reference spec for the vectorized targets.

Each function reads one episode's length and whether it ends in a collision,
and returns one window's fixed-window Monte Carlo return, bootstrapped
n-step return or truncated-lambda blend of the two. `returns.lambda_targets`,
`window_known` and `window_collides` must equal them entry for entry; the
tests import them the way they import `helpers`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from riskhorizon.episodes import Episode
from riskhorizon.returns import HorizonConfig, lambda_weights


class InvalidTargetError(ValueError):
    """The requested window is unknowable on a truncated episode."""


def _check_anchor(episode: Episode, t: int) -> None:
    if not 0 <= t < episode.steps:
        raise ValueError(f"t={t} does not index a recorded state (steps={episode.steps})")


def _collision_step(episode: Episode) -> int | None:
    # 1-based step index of the collision, None for truncated episodes.
    return episode.steps if episode.ends_in_collision else None


def mc_return(episode: Episode, t: int, i: int) -> float:
    """Fixed-window Monte Carlo return: did a collision occur in (t, t+i]?

    Returns 1.0 if the episode's collision falls within the window, 0.0 if
    the window closes on a recorded state without one. Raises
    InvalidTargetError when the window reaches past the recorded states of a
    truncated episode, where the outcome is unknown.
    """

    _check_anchor(episode, t)
    if i < 1:
        raise ValueError("window length i must be >= 1")
    coll = _collision_step(episode)
    if coll is not None and coll <= t + i:
        return 1.0
    if t + i <= episode.steps - 1:
        return 0.0
    raise InvalidTargetError(
        f"window t={t}, i={i} reaches the truncated end of a {episode.steps}-step episode"
    )


def _depth_value(episode: Episode, t: int, n: int, i: int, bootstrap: float | None) -> float:
    """Value of the depth-n component of a window of length i anchored at t."""

    coll = _collision_step(episode)
    if coll is not None and coll <= t + n:
        return 1.0
    if t + n > episode.steps - 1:
        raise InvalidTargetError(
            f"state s_{{t+n}} (t={t}, n={n}) is past the truncated end "
            f"of a {episode.steps}-step episode"
        )
    if n == i:
        # Pure Monte Carlo depth: the reward sum, zero without a collision.
        return 0.0
    if bootstrap is None:
        raise ValueError(f"depth n={n} < i={i} requires a bootstrap estimate")
    return float(np.clip(bootstrap, 0.0, 1.0))


def n_step_return(
    episode: Episode, t: int, n: int, i: int, bootstrap: float | None = None
) -> float:
    """n-step return for head i: realized rewards r_{t+1}..r_{t+n} plus the
    remaining-window estimate at the landing state.

    The bootstrap stands for the probability of a collision in the i-n steps
    after t+n (head i-n evaluated at s_{t+n}) and is clamped to [0, 1]. A
    collision at or before t+n makes the return exactly 1; n = i needs no
    bootstrap and reduces to mc_return.
    """

    _check_anchor(episode, t)
    if not 1 <= n <= i:
        raise ValueError("depth n must satisfy 1 <= n <= i")
    return _depth_value(episode, t, n, i, bootstrap)


def lambda_return(
    episode: Episode,
    t: int,
    i: int,
    bootstraps: Sequence[float | None],
    cfg: HorizonConfig,
) -> float:
    """Truncated lambda blend of n-step returns for head i anchored at t.

    bootstraps[n-1] supplies the landing-state estimate for depth n (ignored
    wherever a collision short-circuits the window or n = i). Head 1 never
    bootstraps: its target is the raw next-step outcome. Depths whose weight
    is exactly zero impose no validity requirement, so at lam=1 the blend
    degenerates to mc_return and at lam=0 to the 1-step return, on exactly
    the windows where those are defined.
    """

    _check_anchor(episode, t)
    if not 1 <= i <= cfg.n_heads:
        raise ValueError(f"head index i={i} outside 1..{cfg.n_heads}")
    if i == 1:
        return _depth_value(episode, t, 1, 1, None)
    weights = lambda_weights(i, cfg.lam, cfg.trunc_n)
    total = 0.0
    for n_minus_1, w in enumerate(weights):
        if w == 0.0:
            continue
        n = n_minus_1 + 1
        boot = bootstraps[n_minus_1] if n < i else None
        total += w * _depth_value(episode, t, n, i, boot)
    # components and weights keep the exact value in [0, 1]; the float
    # accumulation can still land one ulp outside
    return min(max(total, 0.0), 1.0)
