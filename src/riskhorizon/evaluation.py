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
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .episodes import Episode, Terminal
from .oracle import OracleTable
from .returns import HorizonConfig

REPORT_VERSION = 1

DEFAULT_THRESHOLDS = (0.0125, 0.025, 0.05, 0.1, 0.2)
DEFAULT_INTERVALS = ((0.0, 0.4), (0.4, 0.8), (0.8, 1.2), (1.2, 1.6), (1.6, 2.0))


@dataclass
class EvalReport:
    """Per-head squared and signed errors with their sample counts.

    Heads with no valid window in the data carry NaN and count 0.
    """

    acc: np.ndarray
    pes: np.ndarray
    counts: np.ndarray

    @property
    def n_heads(self) -> int:
        return int(self.acc.shape[0])

    @property
    def pes_mean(self) -> float:
        present = self.counts > 0
        if not present.any():
            return float("nan")
        return float(self.pes[present].mean())

    @property
    def acc_mean(self) -> float:
        present = self.counts > 0
        if not present.any():
            return float("nan")
        return float(self.acc[present].mean())


def _window_outcomes(ep: Episode, head: int) -> tuple[np.ndarray, np.ndarray]:
    """(timesteps, outcomes) of every valid MC window of one head."""

    steps = ep.steps
    if ep.terminal is Terminal.COLLISION:
        t = np.arange(steps)
        return t, (t + head >= steps).astype(np.float64)
    last = steps - 1 - head
    if last < 0:
        return np.empty(0, dtype=np.int64), np.empty(0)
    t = np.arange(last + 1)
    return t, np.zeros(last + 1)


def evaluate(episodes: list[Episode], estimator, cfg: HorizonConfig) -> EvalReport:
    """Accuracy and pessimism errors over every valid window of a corpus."""

    if not episodes:
        raise ValueError("cannot evaluate on an empty episode collection")
    n = cfg.n_heads
    sq = np.zeros(n)
    signed = np.zeros(n)
    counts = np.zeros(n, dtype=np.int64)
    for ep in episodes:
        preds = estimator.forward(ep.observations)
        for i in range(1, n + 1):
            t, outcomes = _window_outcomes(ep, i)
            if t.size == 0:
                continue
            resid = outcomes - preds[t, i - 1]
            sq[i - 1] += float((resid**2).sum())
            signed[i - 1] += float(resid.sum())
            counts[i - 1] += t.size
    with np.errstate(invalid="ignore"):
        acc = np.where(counts > 0, sq / np.maximum(counts, 1), np.nan)
        pes = np.where(counts > 0, signed / np.maximum(counts, 1), np.nan)
    return EvalReport(acc=acc, pes=pes, counts=counts)


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
    episodes: list[Episode], estimator, cfg: HorizonConfig
) -> CharacteristicCurves:
    n = cfg.n_heads
    offsets = np.arange(n, 0, -1) * cfg.delta_t
    rows: list[np.ndarray] = []
    skipped = 0
    for ep in episodes:
        if ep.terminal is not Terminal.COLLISION:
            continue
        if ep.steps < n:
            skipped += 1
            continue
        preds = estimator.forward(ep.observations[ep.steps - n : ep.steps])
        rows.append(preds[:, n - 1])
    per_episode = np.array(rows) if rows else np.empty((0, n))
    mean = per_episode.mean(axis=0) if rows else np.full(n, np.nan)
    return CharacteristicCurves(
        offsets_s=offsets, per_episode=per_episode, mean=mean, skipped=skipped
    )


@dataclass
class DetectionTable:
    """Fraction of collision episodes flagged per threshold and interval.

    rates[a, b] is the fraction of collision episodes whose final-head
    estimate exceeds thresholds[a] at some timestep with time-to-collision
    inside intervals[b] (left-open, right-closed, in seconds).
    """

    thresholds: tuple[float, ...]
    intervals: tuple[tuple[float, float], ...]
    rates: np.ndarray
    episode_count: int


def check_detection_grid(
    thresholds: tuple[float, ...], intervals: tuple[tuple[float, float], ...]
) -> None:
    """Raise ValueError unless the detection table has at least one threshold
    and one time-to-collision interval, and every interval (lo, hi] has
    0 <= lo < hi."""

    if not thresholds or not intervals:
        raise ValueError("need at least one threshold and one interval")
    for lo, hi in intervals:
        if not 0.0 <= lo < hi:
            raise ValueError("intervals must be nonempty and nonnegative")


def detection_rate(
    episodes: list[Episode],
    estimator,
    cfg: HorizonConfig,
    thresholds: tuple[float, ...] = DEFAULT_THRESHOLDS,
    intervals: tuple[tuple[float, float], ...] = DEFAULT_INTERVALS,
) -> DetectionTable:
    check_detection_grid(thresholds, intervals)
    collisions = [ep for ep in episodes if ep.terminal is Terminal.COLLISION]
    rates = np.zeros((len(thresholds), len(intervals)))
    if not collisions:
        return DetectionTable(tuple(thresholds), tuple(intervals), rates, 0)
    # Max final-head estimate per (episode, interval); thresholds then just
    # compare against it, which also forces monotonicity in the threshold.
    peak = np.full((len(collisions), len(intervals)), -np.inf)
    for e, ep in enumerate(collisions):
        preds = estimator.forward(ep.observations)[:, cfg.n_heads - 1]
        ttc = (ep.steps - np.arange(ep.steps)) * cfg.delta_t
        for b, (lo, hi) in enumerate(intervals):
            inside = (ttc > lo) & (ttc <= hi)
            if inside.any():
                peak[e, b] = preds[inside].max()
    for a, theta in enumerate(thresholds):
        rates[a] = (peak > theta).mean(axis=0)
    return DetectionTable(tuple(thresholds), tuple(intervals), rates, len(collisions))


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


# Report files: tab-delimited tables with a version header line, plus one
# structured JSON summary. All numbers use fixed formats so identical inputs
# serialize identically.


def _write_table(path: Path, name: str, columns: list[str], rows: list[list[str]]) -> None:
    lines = [f"# riskhorizon-{name} v{REPORT_VERSION}", "\t".join(columns)]
    lines.extend("\t".join(row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_head_metrics(path: str | Path, report: EvalReport) -> None:
    rows = []
    for i in range(report.n_heads):
        rows.append(
            [
                str(i + 1),
                "%.12g" % report.acc[i],
                "%.12g" % report.pes[i],
                str(int(report.counts[i])),
            ]
        )
    _write_table(Path(path), "head-metrics", ["head", "acc_error", "pes_error", "windows"], rows)


def write_characteristic(path: str | Path, curves: CharacteristicCurves) -> None:
    rows = []
    for k in range(curves.offsets_s.shape[0]):
        rows.append(["%.12g" % curves.offsets_s[k], "%.12g" % curves.mean[k]])
    _write_table(
        Path(path), "collision-characteristic", ["time_to_collision_s", "mean_estimate"], rows
    )


def write_detection(path: str | Path, table: DetectionTable) -> None:
    rows = []
    for a, theta in enumerate(table.thresholds):
        for b, (lo, hi) in enumerate(table.intervals):
            rows.append(
                ["%.12g" % theta, "%.12g" % lo, "%.12g" % hi, "%.12g" % table.rates[a, b]]
            )
    _write_table(
        Path(path),
        "detection-rate",
        ["threshold", "interval_lo_s", "interval_hi_s", "detection_rate"],
        rows,
    )


def write_oracle_errors(path: str | Path, errors: np.ndarray) -> None:
    rows = []
    for s in range(errors.shape[0]):
        for i in range(errors.shape[1]):
            rows.append([str(s), str(i + 1), "%.12g" % errors[s, i]])
    _write_table(Path(path), "oracle-errors", ["state", "head", "abs_error"], rows)


def write_summary(path: str | Path, payload: dict) -> None:
    doc = {"format": "riskhorizon-eval-summary", "version": REPORT_VERSION, **payload}
    Path(path).write_text(
        json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n", encoding="utf-8"
    )
