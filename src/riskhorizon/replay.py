"""Replay index with stratified sampling for rare collision windows.

Collisions are rare, and only timesteps within the final head's horizon of
one actually carry a positive Monte Carlo outcome. The index marks those
timesteps collision-related; sampling then proposes uniformly over the
index and accepts proposals with probability p_collision or p_noncollision
depending on the flag. The loss undoes that bias: it weights the squared
error of collision-related rows by `LossWeights.collision_mse_factor`
(p_noncollision / p_collision), so weighted expectations match uniform
sampling scaled by p_noncollision.

The index is one NumPy record array with fields `episode`, `timestep` and
`collision_related`. A subset (`index[mask]`) and a drawn batch are record
arrays of the same type: whole columns for the training loop, and
per-record attributes (`batch[k].episode`) where one row is wanted.
"""

from __future__ import annotations

import numpy as np

from .episodes import Episode
from .returns import HorizonConfig

INDEX_DTYPE = np.dtype(
    [("episode", np.int64), ("timestep", np.int64), ("collision_related", np.bool_)]
)


def build_index(episodes: list[Episode], cfg: HorizonConfig) -> np.recarray:
    """Index every in-episode timestep exactly once, in episode order.

    A timestep is collision-related when its episode ends in a collision and
    it lies within n_heads steps of it, i.e. the final head's window covers
    the collision there.
    """

    if not episodes:
        raise ValueError("cannot index an empty episode collection")
    steps = np.array([ep.steps for ep in episodes], dtype=np.int64)
    collided = np.array([ep.ends_in_collision for ep in episodes])
    index = np.recarray(int(steps.sum()), dtype=INDEX_DTYPE)
    index.episode = np.repeat(np.arange(len(episodes)), steps)
    index.timestep = np.arange(len(index)) - np.repeat(np.cumsum(steps) - steps, steps)
    remaining = steps[index.episode] - index.timestep
    index.collision_related = collided[index.episode] & (remaining <= cfg.n_heads)
    return index


def sample(
    index: np.recarray,
    batch_size: int,
    rng: np.random.Generator,
    p_collision: float,
    p_noncollision: float,
) -> np.recarray:
    """Draw a batch of index records by uniform proposal and stratified acceptance.

    Proposals are uniform over the index; a collision-related proposal is
    accepted with probability p_collision, any other with p_noncollision.
    Rejected proposals are redrawn until the batch is full.
    """

    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if len(index) == 0:
        raise ValueError("cannot sample from an empty index")
    for name, p in (("p_collision", p_collision), ("p_noncollision", p_noncollision)):
        if not 0.0 < p <= 1.0:
            raise ValueError(f"{name} must lie in (0, 1]")
    related = index.collision_related
    taken: list[np.ndarray] = []
    n_taken = 0
    # Chunked rejection keeps the draw count bounded while staying a pure
    # function of the generator state. Accepted proposals are taken in
    # proposal order; the rest of the chunk that fills the batch is dropped.
    chunk = max(batch_size * 4, 64)
    while n_taken < batch_size:
        proposals = rng.integers(0, len(index), size=chunk)
        accept = rng.random(chunk)
        threshold = np.where(related[proposals], p_collision, p_noncollision)
        taken.append(proposals[accept < threshold][: batch_size - n_taken])
        n_taken += len(taken[-1])
    return index[np.concatenate(taken)]
