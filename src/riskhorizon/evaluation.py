"""Held-out evaluation of a trained estimator against realized outcomes.

Ground truth per (timestep, head) is the fixed-window Monte Carlo outcome:
1 if the episode's collision falls within the head's window, 0 if the window
closes inside the recorded steps. Windows reaching past a truncated
episode's recorded steps are excluded, so the last n_heads steps of every
non-collision episode never contribute.

Two error measures per head: the mean squared error (an unbiased, high
variance accuracy measure) and the mean signed residual outcome-minus-
estimate, whose negative values read as systematic overestimation, i.e.
pessimism.

Report tables and the JSON summary are written through `artifacts`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .artifacts import write_json, write_table
from .episodes import Episode
from .oracle import OracleTable
from .returns import HorizonConfig, corpus_rows, window_collides, window_known

REPORT_VERSION = 1

# `evaluate` and the training snapshot forward whole episodes in groups of
# about this many rows: few calls, and memory that does not grow with the
# corpus.
GROUP_ROWS = 1024

# Interval bounds are converted to whole steps to collision by flooring,
# after scaling up by this relative tolerance: 0.3 s at 0.1 s per step is
# 2.9999999999999996 steps, which is step 3.
STEP_TOLERANCE = 1e-9


@dataclass
class EvalReport:
    """Per-head squared and signed errors with their sample counts, and the
    final head's output at every row of the episodes laid end to end.

    Heads with no valid window in the data carry NaN and count 0.
    """

    acc: np.ndarray
    pes: np.ndarray
    counts: np.ndarray
    final_head: np.ndarray

    @property
    def n_heads(self) -> int:
        return int(self.acc.shape[0])

    @property
    def pes_mean(self) -> float:
        return self._mean_over_present(self.pes)

    @property
    def acc_mean(self) -> float:
        return self._mean_over_present(self.acc)

    def _mean_over_present(self, per_head: np.ndarray) -> float:
        present = self.counts > 0
        return float(per_head[present].mean()) if present.any() else float("nan")


def episode_groups(sizes):
    """Slices of consecutive items, each holding the items whose first row
    falls into one block of GROUP_ROWS rows, when items of the given row
    counts are laid end to end."""

    starts = np.cumsum(sizes) - sizes
    cuts = np.flatnonzero(np.diff(starts // GROUP_ROWS)) + 1
    bounds = [0, *cuts.tolist(), len(starts)]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if hi > lo]


def evaluate(episodes: list[Episode], estimator, cfg: HorizonConfig) -> EvalReport:
    """Accuracy and pessimism errors over every valid window of a corpus."""

    if not episodes:
        raise ValueError("cannot evaluate on an empty episode collection")
    heads = np.arange(1, cfg.n_heads + 1)
    sq = np.zeros(cfg.n_heads)
    signed = np.zeros(cfg.n_heads)
    counts = np.zeros(cfg.n_heads, dtype=np.int64)
    final_head = []
    for group in episode_groups([ep.steps for ep in episodes]):
        members = episodes[group]
        preds = estimator.forward(np.concatenate([ep.observations for ep in members]))
        # [rows, n_heads] over the group's episodes laid end to end; a copy
        # of its final-head column outlives it.
        final_head.append(preds[:, -1].copy())
        rows = np.arange(len(preds))[:, None]
        last_rows, collided = (a[:, None] for a in corpus_rows(members))
        known = window_known(rows, last_rows, collided, heads)
        outcomes = window_collides(rows, last_rows, collided, heads)
        resid = np.where(known, outcomes - preds, 0.0)
        sq += (resid**2).sum(axis=0)
        signed += resid.sum(axis=0)
        counts += known.sum(axis=0)
    with np.errstate(invalid="ignore"):
        acc = np.where(counts > 0, sq / np.maximum(counts, 1), np.nan)
        pes = np.where(counts > 0, signed / np.maximum(counts, 1), np.nan)
    return EvalReport(acc=acc, pes=pes, counts=counts, final_head=np.concatenate(final_head))


@dataclass
class CharacteristicCurves:
    """Final-head estimates as a function of time-to-collision.

    offsets_s[k] is the time to collision in seconds; per_episode[e, k] the
    final-head estimate of episode e at that offset; mean averages over the
    contributing episodes. Episodes shorter than the horizon are skipped.
    """

    offsets_s: np.ndarray
    per_episode: np.ndarray
    mean: np.ndarray
    skipped: int


def collision_characteristic(
    episodes: list[Episode], final_head: np.ndarray, cfg: HorizonConfig
) -> CharacteristicCurves:
    """Curves from the `EvalReport.final_head` of the same episodes."""

    n = cfg.n_heads
    last_rows, collided = corpus_rows(episodes)
    # Each episode's last row; eligible episodes collide after n or more steps.
    ends = np.flatnonzero(last_rows == np.arange(len(last_rows)))
    collisions = collided[ends]
    eligible = ends[collisions & (np.diff(ends, prepend=-1) >= n)]
    # The final head's estimates over each eligible episode's last n states.
    per_episode = final_head[eligible[:, None] - (n - 1) + np.arange(n)]
    mean = per_episode.mean(axis=0) if len(eligible) else np.full(n, np.nan)
    return CharacteristicCurves(offsets_s=np.arange(n, 0, -1) * cfg.delta_t,
                                per_episode=per_episode, mean=mean,
                                skipped=int(collisions.sum()) - len(eligible))


@dataclass(frozen=True)
class DetectionGrid:
    """The detection table's final-head thresholds and its time-to-collision
    intervals (lo, hi] in seconds: at least one of each, every interval a
    pair with 0 <= lo < hi. Its fields are the `eval` config keys."""

    thresholds: tuple[float, ...] = (0.0125, 0.025, 0.05, 0.1, 0.2)
    intervals: tuple[tuple[float, ...], ...] = (
        (0.0, 0.4), (0.4, 0.8), (0.8, 1.2), (1.2, 1.6), (1.6, 2.0))

    def __post_init__(self) -> None:
        object.__setattr__(self, "thresholds", tuple(float(t) for t in self.thresholds))
        object.__setattr__(self, "intervals",
                           tuple(tuple(float(b) for b in pair) for pair in self.intervals))
        if not self.thresholds or not self.intervals:
            raise ValueError("need at least one threshold and one interval")
        for i, pair in enumerate(self.intervals):
            if len(pair) != 2:
                raise ValueError(f"intervals[{i}] must be a [lo, hi] pair, got {list(pair)!r}")
            if not 0.0 <= pair[0] < pair[1]:
                raise ValueError(f"intervals[{i}] must have 0 <= lo < hi, got {list(pair)!r}")


@dataclass
class DetectionTable:
    """Fraction of collision episodes flagged per threshold and interval.

    rates[a, b] is, of the collision episodes with a timestep whose
    time-to-collision lies inside grid.intervals[b] (left-open, right-closed,
    in seconds, each bound taken as a whole number of steps), the fraction
    whose final-head estimate exceeds grid.thresholds[a] at such a timestep;
    it is NaN when no collision episode has such a timestep. episode_count
    counts every collision episode.
    """

    grid: DetectionGrid
    rates: np.ndarray
    episode_count: int


def detection_rate(
    episodes: list[Episode],
    final_head: np.ndarray,
    cfg: HorizonConfig,
    grid: DetectionGrid = DetectionGrid(),
) -> DetectionTable:
    """Table from the `EvalReport.final_head` of the same episodes."""

    last_rows, collided = corpus_rows(episodes)
    # The rows of the collision episodes, and where each one starts among them.
    rows = np.flatnonzero(collided)
    last = last_rows[rows]
    starts = np.flatnonzero(np.diff(last, prepend=-1))
    lo, hi = np.floor(np.array(grid.intervals).T / cfg.delta_t * (1 + STEP_TOLERANCE))
    # Steps to collision of every row, against every interval.
    steps = (last + 1 - rows)[:, None]
    inside = (steps > lo) & (steps <= hi)
    # Max final-head estimate per (episode, interval); thresholds then just
    # compare against it, which also forces monotonicity in the threshold.
    peak = np.maximum.reduceat(np.where(inside, final_head[rows, None], -np.inf),
                               starts, axis=0)
    hits = (peak > np.array(grid.thresholds)[:, None, None]).sum(axis=1)
    # Each interval's rate is over the episodes with a step inside it. Where
    # none has one it is a positive NaN, which 0 / 0 would not be.
    reached = np.logical_or.reduceat(inside, starts, axis=0).sum(axis=0)
    rates = np.where(reached > 0, hits / np.maximum(reached, 1), np.nan)
    return DetectionTable(grid, rates, len(starts))


def oracle_errors(estimator, table: OracleTable, state_observations: np.ndarray) -> np.ndarray:
    """|estimate - exact| per (state, head) on a chain world.

    state_observations[s] must be the observation the world emits in state s.
    """

    preds = np.asarray(estimator.forward(state_observations), dtype=np.float64)
    if preds.shape != (table.n_states, table.n_heads):
        raise ValueError(
            f"estimator output {preds.shape} does not match oracle "
            f"[{table.n_states}, {table.n_heads}]"
        )
    return np.abs(preds - table.probabilities[:, 1:])


def write_head_metrics(path: str | Path, report: EvalReport) -> None:
    write_table(path, "head-metrics", ["head", "acc_error", "pes_error", "windows"],
                zip(range(1, report.n_heads + 1), report.acc, report.pes, report.counts))


def write_characteristic(path: str | Path, curves: CharacteristicCurves) -> None:
    write_table(path, "collision-characteristic", ["time_to_collision_s", "mean_estimate"],
                zip(curves.offsets_s, curves.mean))


def write_detection(path: str | Path, table: DetectionTable) -> None:
    rows = [(theta, lo, hi, table.rates[a, b])
            for a, theta in enumerate(table.grid.thresholds)
            for b, (lo, hi) in enumerate(table.grid.intervals)]
    write_table(path, "detection-rate",
                ["threshold", "interval_lo_s", "interval_hi_s", "detection_rate"], rows, version=3)


def write_oracle_errors(path: str | Path, errors: np.ndarray) -> None:
    rows = [(s, i + 1, errors[s, i])
            for s in range(errors.shape[0]) for i in range(errors.shape[1])]
    write_table(path, "oracle-errors", ["state", "head", "abs_error"], rows)


def write_summary(path: str | Path, payload: dict) -> None:
    write_json(path, {"format": "riskhorizon-eval-summary", "version": REPORT_VERSION, **payload})
