"""Replay index with stratified sampling for rare collision windows.

Replay addresses the rows of the training episodes laid end to end, the row
space of the bootstrap snapshot (`returns.corpus_rows`). Only rows whose
1-step window has a known outcome can anchor a valid target, so only those
are indexed; the last row of a truncated episode is not. Collisions are rare,
and only rows within the final head's horizon of one carry a positive Monte
Carlo outcome. The index marks those rows collision-related; sampling then
proposes uniformly over the index and accepts proposals with probability
p_collision or p_noncollision depending on the flag. The loss undoes that
bias: it weights the squared error of collision-related rows by
`LossWeights.collision_mse_factor` (p_noncollision / p_collision), so
weighted expectations match uniform sampling scaled by p_noncollision.

The index is one NumPy record array with fields `row` and
`collision_related`. A subset (`index[mask]`) and a drawn batch are record
arrays of the same type: whole columns for the training loop, and
per-record attributes (`batch[k].row`) where one row is wanted.
"""

from __future__ import annotations

import numpy as np

from .episodes import Episode
from .returns import HorizonConfig, corpus_rows, window_collides, window_known

INDEX_DTYPE = np.dtype([("row", np.int64), ("collision_related", np.bool_)])


def build_index(episodes: list[Episode], cfg: HorizonConfig) -> np.recarray:
    """Index every row that can anchor a valid target once, in row order.

    A row is collision-related when the final head's window after it holds
    its episode's collision.
    """

    if not episodes:
        raise ValueError("cannot index an empty episode collection")
    last_rows, collided = corpus_rows(episodes)
    rows = np.flatnonzero(window_known(np.arange(len(last_rows)), last_rows, collided, 1))
    index = np.recarray(len(rows), dtype=INDEX_DTYPE)
    index.row = rows
    index.collision_related = window_collides(rows, last_rows[rows], collided[rows], cfg.n_heads)
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
    # Record-array attribute access and indexing cost several times what a
    # plain structured view's do; only the batch is made a record array.
    plain = index.view(np.ndarray)
    related = plain["collision_related"]
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
    return plain[np.concatenate(taken)].view(np.recarray)
