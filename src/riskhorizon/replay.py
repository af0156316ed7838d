"""Replay index with stratified sampling for rare collision windows.

Collisions are rare, and only timesteps within the final head's horizon of
one actually carry a positive Monte Carlo outcome. The index marks those
timesteps collision-related; sampling then proposes uniformly over the
index and accepts proposals with probability p_collision or p_noncollision
depending on the flag. Accepted collision-related samples carry the
importance factor p_noncollision / p_collision so that importance-weighted
expectations match uniform sampling scaled by p_noncollision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .episodes import Episode, Terminal
from .returns import HorizonConfig


@dataclass(frozen=True)
class SampleRef:
    """One drawn (episode, timestep) with its sampling bookkeeping."""

    episode: int
    timestep: int
    collision_related: bool
    importance: float


@dataclass
class ReplayIndex:
    """Flat view of every indexed (episode, timestep) pair."""

    episode_ids: np.ndarray
    timesteps: np.ndarray
    collision_related: np.ndarray

    def __post_init__(self) -> None:
        self.episode_ids = np.asarray(self.episode_ids, dtype=np.int64)
        self.timesteps = np.asarray(self.timesteps, dtype=np.int64)
        self.collision_related = np.asarray(self.collision_related, dtype=bool)
        if not (
            self.episode_ids.shape == self.timesteps.shape == self.collision_related.shape
        ):
            raise ValueError("index columns must have identical lengths")

    def __len__(self) -> int:
        return int(self.episode_ids.shape[0])

    @property
    def n_collision_related(self) -> int:
        return int(self.collision_related.sum())

    def restricted(self, keep: np.ndarray) -> "ReplayIndex":
        """Sub-index over a boolean keep mask (the full index is unchanged)."""

        keep = np.asarray(keep, dtype=bool)
        if keep.shape != self.episode_ids.shape:
            raise ValueError("keep mask must match the index length")
        return ReplayIndex(
            episode_ids=self.episode_ids[keep],
            timesteps=self.timesteps[keep],
            collision_related=self.collision_related[keep],
        )


def build_index(episodes: list[Episode], cfg: HorizonConfig) -> ReplayIndex:
    """Index every in-episode timestep exactly once.

    A timestep is collision-related when its episode ends in a collision and
    it lies within n_heads steps of it, i.e. the final head's window covers
    the collision there.
    """

    if not episodes:
        raise ValueError("cannot index an empty episode collection")
    ep_ids: list[np.ndarray] = []
    steps: list[np.ndarray] = []
    flags: list[np.ndarray] = []
    for e, ep in enumerate(episodes):
        t = np.arange(ep.steps, dtype=np.int64)
        ep_ids.append(np.full(ep.steps, e, dtype=np.int64))
        steps.append(t)
        if ep.terminal is Terminal.COLLISION:
            flags.append(t >= ep.steps - cfg.n_heads)
        else:
            flags.append(np.zeros(ep.steps, dtype=bool))
    return ReplayIndex(
        episode_ids=np.concatenate(ep_ids),
        timesteps=np.concatenate(steps),
        collision_related=np.concatenate(flags),
    )


def sample(
    index: ReplayIndex,
    batch_size: int,
    rng: np.random.Generator,
    p_collision: float,
    p_noncollision: float,
) -> list[SampleRef]:
    """Draw a batch by uniform proposal and stratified acceptance.

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
    importance = p_noncollision / p_collision
    out: list[SampleRef] = []
    # Chunked rejection keeps the draw count bounded while staying a pure
    # function of the generator state. Accepted proposals are taken in
    # proposal order; the rest of the chunk that fills the batch is dropped.
    chunk = max(batch_size * 4, 64)
    while len(out) < batch_size:
        proposals = rng.integers(0, len(index), size=chunk)
        accept = rng.random(chunk)
        threshold = np.where(index.collision_related[proposals], p_collision, p_noncollision)
        taken = proposals[accept < threshold][: batch_size - len(out)]
        for e, t, related in zip(
            index.episode_ids[taken].tolist(),
            index.timesteps[taken].tolist(),
            index.collision_related[taken].tolist(),
        ):
            out.append(SampleRef(e, t, related, importance if related else 1.0))
    return out
