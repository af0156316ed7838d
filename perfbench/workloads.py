"""The benchmark's workloads: one riskhorizon run configuration each.

Every workload is the same user session run as separate processes: `gen`
writes an episode file, `train` writes a checkpoint and `metrics.tsv`,
`eval` writes the report tables, and a scoring process loads the checkpoint
and scores recorded steps one observation at a time. `chain` adds
`oracle --cross-check`. The two workloads are the two acceptance fixtures,
scaled down (fewer epochs, and a smaller corridor corpus) so that many
whole sessions fit in one run and times can be reported as medians. Why
each workload is there is stated in BENCHMARK.json.

The workload seed reaches the program only through `--seed` (gen, train,
oracle) and through the episode file that `gen` writes; `master_seed` in
the written configuration is a placeholder that `--seed` always replaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

# Where one session writes its artifacts, relative to its own directory.
EPISODES = "episodes.jsonl"
CHECKPOINT = "run/checkpoint.json"
# Recorded steps each session scores one observation at a time, so that a
# session's p99 has 20 calls beyond it.
SCORE_ROWS = 2000


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    # Also run `oracle --cross-check`; the world has an exact DP table.
    oracle: bool = False

    def commands(self, config: Path, seed: int, out: Path) -> list[tuple[str, list[str]]]:
        """(label, argv after `riskhorizon`) of one session writing under `out`."""

        episodes = str(out / EPISODES)
        steps = [
            ("gen", ["gen", "--config", str(config), "--out", episodes, "--seed", str(seed)]),
            ("train", ["train", "--config", str(config), "--episodes", episodes,
                       "--out", str((out / CHECKPOINT).parent), "--seed", str(seed)]),
            ("eval", ["eval", "--checkpoint", str(out / CHECKPOINT), "--episodes", episodes,
                      "--out", str(out / "reports"), "--config", str(config)]),
        ]
        if self.oracle:
            steps.append(("oracle", ["oracle", "--config", str(config),
                                     "--out", str(out / "oracle.tsv"), "--cross-check",
                                     "--seed", str(seed)]))
        return steps


def _config(env, count, horizon, arch, loss, train, evaluation) -> dict:
    return {
        "version": 1,
        "master_seed": 0,
        "env": env,
        "gen": {"count": count},
        "horizon": horizon,
        "estimator": arch,
        "loss": {"c_interval": 1.0, "c_chain": 1.0, **loss},
        "train": {"eval_fraction": 0.2, **train},
        "eval": evaluation,
    }


WORKLOADS = {
    w.name: w
    for w in (
        # The chain acceptance fixture with 10 of its 40 epochs.
        Workload(
            name="chain",
            config=_config(
                {
                    "kind": "chain",
                    "n_states": 4,
                    "hazard": [0.02, 0.05, 0.1, 0.18],
                    "transition": [
                        [0.6, 0.4, 0.0, 0.0],
                        [0.3, 0.4, 0.3, 0.0],
                        [0.0, 0.3, 0.4, 0.3],
                        [0.0, 0.0, 0.4, 0.6],
                    ],
                    "start_distribution": [0.4, 0.3, 0.2, 0.1],
                    "max_steps": 40,
                },
                400,
                {"delta_t": 0.1, "n_heads": 5, "lambda": 0.8, "trunc_n": 3},
                {"backbone_layers": [32, 32], "head_layers": [8, 1]},
                {"p_collision": 0.25, "p_noncollision": 0.025},
                {"epochs": 10, "samples_per_epoch": 2000, "batch_size": 32,
                 "lr_start": 0.003, "lr_end": 0.0003},
                {"thresholds": [0.0125, 0.025, 0.05, 0.1, 0.2],
                 "intervals": [[0.0, 0.1], [0.1, 0.2], [0.2, 0.3], [0.3, 0.4], [0.4, 0.5]]},
            ),
            oracle=True,
        ),
        # The corridor acceptance fixture with half its corpus and samples
        # per epoch (same rows per sample) and 2 of its 15 epochs.
        Workload(
            name="corridor",
            config=_config(
                {"kind": "corridor", "stack_frames": 3},
                150,
                {"delta_t": 0.1, "n_heads": 20, "lambda": 0.8, "trunc_n": 10},
                {"backbone_layers": [64, 64], "head_layers": [16, 1]},
                {"p_collision": 0.5, "p_noncollision": 0.025},
                {"epochs": 2, "samples_per_epoch": 2000, "batch_size": 32,
                 "lr_start": 0.001, "lr_end": 0.0001},
                {"thresholds": [0.0125, 0.025, 0.05, 0.1, 0.2],
                 "intervals": [[0.0, 0.4], [0.4, 0.8], [0.8, 1.2], [1.2, 1.6], [1.6, 2.0]]},
            ),
        ),
    )
}
