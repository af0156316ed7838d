"""Single-observation scoring: the collision-warning use of a checkpoint.

As a process (the untraced run starts one per session):

    python3 perfbench/score.py CHECKPOINT EPISODES ROWS OUT_JSON

loads the checkpoint and the episode file, then scores the first ROWS
recorded steps one observation at a time. It is a closed
loop with one client: each call is issued when the previous one returns.
Afterwards it scores the same rows in batched forwards and reports the
largest gap between the two. `ready` is the CLOCK_MONOTONIC time at which
loading finished, so the parent can measure the cold start.

run.py imports this module too; numpy is imported inside the functions so
that the untraced parent process stays small (see run.run_child).
"""

from __future__ import annotations

import json
import sys
import time

BATCH_ROWS = 1000


def stacked_rows(episodes, limit: int):
    import numpy as np

    return np.concatenate([ep.observations for ep in episodes])[:limit]


def score_rows(estimator, rows):
    """Score each row alone; returns (outputs, per-call seconds)."""

    import numpy as np

    outputs = np.empty((rows.shape[0], estimator.config.n_heads))
    latency = []
    clock = time.perf_counter
    for k in range(rows.shape[0]):
        row = rows[k]
        started = clock()
        outputs[k] = estimator.forward(row)
        latency.append(clock() - started)
    return outputs, latency


def batch_gap(estimator, rows, outputs) -> float:
    """Largest |single-observation output - batched output| over all rows.

    Batches hold at most BATCH_ROWS rows, so that this check does not set
    the scoring process's peak memory.
    """

    import numpy as np

    return max(
        float(np.abs(outputs[k:k + BATCH_ROWS] - estimator.forward(rows[k:k + BATCH_ROWS])).max())
        for k in range(0, rows.shape[0], BATCH_ROWS)
    )


def numpy_manifest() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
    }


def main(argv: list[str]) -> int:
    checkpoint, episode_file, limit, out = argv
    from riskhorizon.episodes import load_episodes
    from riskhorizon.network import load_checkpoint

    estimator = load_checkpoint(checkpoint).estimator
    episodes, _ = load_episodes(episode_file)
    ready = time.monotonic()
    rows = stacked_rows(episodes, int(limit))
    outputs, latency = score_rows(estimator, rows)
    doc = {
        "ready": ready,
        "latency_s": latency,
        "max_gap": batch_gap(estimator, rows, outputs),
        "manifest": numpy_manifest(),
    }
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
