"""Exact cumulative collision probabilities for chain worlds.

Two independent routes to the same quantity. The dynamic program uses the
one-step recursion

    P[s, i] = hazard(s) + (1 - hazard(s)) * sum_s' T[s, s'] * P[s', i - 1]

with P[s, 0] = 0. The brute force enumerates every state sequence outright
and sums path probabilities; it exists purely to cross-check the recursion
and refuses instances large enough to make enumeration silly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .artifacts import write_table
from .envs import ChainWorld

BRUTE_FORCE_MAX_STATES = 6
BRUTE_FORCE_MAX_HORIZON = 8


class InstanceTooLargeError(ValueError):
    """The brute-force enumerator refuses instances past its hard limits."""


@dataclass
class OracleTable:
    """probabilities[s, i] is the chance of a collision within i steps from s.

    Column 0 is identically zero; columns run 0..n_heads. Rows are
    nondecreasing in i and bounded by 1.
    """

    probabilities: np.ndarray

    def __post_init__(self) -> None:
        self.probabilities = np.asarray(self.probabilities, dtype=np.float64)
        if self.probabilities.ndim != 2:
            raise ValueError("probabilities must be [n_states, n_heads + 1]")

    @property
    def n_states(self) -> int:
        return self.probabilities.shape[0]

    @property
    def n_heads(self) -> int:
        return self.probabilities.shape[1] - 1


def dp_cumulative(world: ChainWorld, n_heads: int) -> OracleTable:
    """Cumulative collision probabilities by dynamic programming."""

    if n_heads < 1:
        raise ValueError("n_heads must be >= 1")
    hazard = np.array(world.hazard)
    transition = np.array(world.transition)
    table = np.zeros((world.n_states, n_heads + 1))
    for i in range(1, n_heads + 1):
        table[:, i] = hazard + (1.0 - hazard) * (transition @ table[:, i - 1])
    return OracleTable(probabilities=table)


def brute_force_cumulative(world: ChainWorld, n_heads: int) -> OracleTable:
    """Cumulative collision probabilities by explicit path enumeration.

    Sums, over every collision step k <= i and every intermediate state
    sequence, the probability of surviving k-1 hazard checks, making those
    moves, and then failing the k-th check.
    """

    if n_heads < 1:
        raise ValueError("n_heads must be >= 1")
    if world.n_states > BRUTE_FORCE_MAX_STATES or n_heads > BRUTE_FORCE_MAX_HORIZON:
        raise InstanceTooLargeError(
            f"brute force is capped at {BRUTE_FORCE_MAX_STATES} states and "
            f"{BRUTE_FORCE_MAX_HORIZON} horizon steps "
            f"(got {world.n_states} states, {n_heads} steps)"
        )
    hazard = np.array(world.hazard)
    survive = 1.0 - hazard
    transition = np.array(world.transition)
    states = range(world.n_states)
    collide_at = np.zeros((world.n_states, n_heads + 1))
    for k in range(1, n_heads + 1):
        paths = np.array(list(itertools.product(states, repeat=k - 1)), dtype=np.intp)
        paths = paths.reshape(len(paths), k - 1)
        for s in states:
            seq = np.concatenate([np.full((paths.shape[0], 1), s, dtype=np.intp), paths], axis=1)
            move_probs = survive[seq[:, :-1]] * transition[seq[:, :-1], seq[:, 1:]]
            path_prob = move_probs.prod(axis=1) * hazard[seq[:, -1]]
            collide_at[s, k] = path_prob.sum()
    return OracleTable(probabilities=np.cumsum(collide_at, axis=1))


def write_oracle_table(path: str | Path, table: OracleTable) -> None:
    """Tab-delimited export: state, horizon step, cumulative probability."""

    rows = [(s, i, table.probabilities[s, i])
            for s in range(table.n_states) for i in range(table.n_heads + 1)]
    write_table(path, "oracle-table", ["state", "horizon_step", "probability"], rows)
