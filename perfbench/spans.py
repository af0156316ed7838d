"""Spans around the public functions of each riskhorizon module.

`Tracer` rebinds, for as long as it is installed, every name under which a
riskhorizon module holds one of the functions in TRACED (modules import
each other's functions by name, so each binding is replaced), and
`MultiHeadEstimator.forward` on the class. Nothing under src/ changes; the
original objects are restored on exit.

A span is [name, start, end, parent index, note]; the note holds what the
per-layer metrics need from the call's arguments or result. Self time is a
span's duration minus its children's. Forwards are attributed by their
parent span: `training.train` (the per-epoch bootstrap snapshot), an
evaluation function, or the benchmark's `score` loop.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import statistics
import time
from contextlib import contextmanager

# Functions wrapped per layer; the layers are the package's modules.
TRACED = {
    "cli": ("cmd_gen", "cmd_train", "cmd_eval", "cmd_oracle"),
    "config": ("load_config",),
    "envs": ("generate_episodes",),
    "episodes": ("save_episodes", "load_episodes"),
    "returns": ("targets_from_estimates",),
    "network": ("batch_loss_and_grad", "optimizer_step", "save_checkpoint", "load_checkpoint"),
    "replay": ("build_index", "sample"),
    "training": ("train", "write_metric_log"),
    "evaluation": ("evaluate", "collision_characteristic", "detection_rate", "oracle_errors",
                   "write_head_metrics", "write_characteristic", "write_detection",
                   "write_oracle_errors", "write_summary"),
    "oracle": ("dp_cumulative", "brute_force_cumulative", "write_oracle_table"),
}

EVALUATION_PARENTS = ("evaluation.evaluate", "evaluation.collision_characteristic",
                      "evaluation.detection_rate", "evaluation.oracle_errors")
REPORT_WRITERS = ("evaluation.write_head_metrics", "evaluation.write_characteristic",
                  "evaluation.write_detection", "evaluation.write_oracle_errors",
                  "evaluation.write_summary")


def forward_flops(cfg) -> int:
    """Multiply-add FLOPs (2 per weight) of one row through the estimator.

    Computed from the layer shapes; biases and activations are not counted.
    """

    widths = [cfg.input_dim, *cfg.backbone_layers]
    flops = sum(2 * a * b for a, b in zip(widths, widths[1:]))
    head = [cfg.backbone_layers[-1] + 1, *cfg.head_layers]
    return flops + cfg.n_heads * sum(2 * a * b for a, b in zip(head, head[1:]))


def _note_forward(args, result):
    rows = 1 if args[1].ndim == 1 else args[1].shape[0]
    return rows, rows * forward_flops(args[0].config)


def _note_train(args, result):
    held = set(result.held_out)
    rows = sum(ep.steps for j, ep in enumerate(args[0]) if j not in held)
    return {"train_rows": rows, "epochs": len(result.metrics)}


NOTES = {
    "envs.generate_episodes": lambda args, result: sum(ep.steps for ep in result[0]),
    "episodes.save_episodes": lambda args, result: os.path.getsize(args[0]),
    "network.save_checkpoint": lambda args, result: os.path.getsize(args[0]),
    "replay.sample": lambda args, result: (len(result),
                                           sum(r.collision_related for r in result)),
    "training.train": _note_train,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        """Open a span; also used directly for the benchmark's scoring loop."""

        span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn, note=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if note is not None:
                span[4] = note(args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        modules = [importlib.import_module("riskhorizon")]
        modules += [importlib.import_module(f"riskhorizon.{m}") for m in TRACED]
        try:
            for layer, names in TRACED.items():
                owner = importlib.import_module(f"riskhorizon.{layer}")
                for fname in names:
                    original = getattr(owner, fname)
                    name = f"{layer}.{fname}"
                    wrapped = self._wrap(name, original, NOTES.get(name))
                    for module in modules:
                        for attr, value in list(vars(module).items()):
                            if value is original:
                                self._undo.append((module, attr, original))
                                setattr(module, attr, wrapped)
            cls = importlib.import_module("riskhorizon.network").MultiHeadEstimator
            self._undo.append((cls, "forward", cls.forward))
            cls.forward = self._wrap("network.forward", cls.forward, _note_forward)
            yield self
        finally:
            for obj, attr, original in reversed(self._undo):
                setattr(obj, attr, original)
            self._undo.clear()


def _quantile_us(durations, q):
    if len(durations) < 2:
        return durations[0] * 1e6 if durations else 0.0
    return statistics.quantiles(durations, n=100, method="inclusive")[q - 1] * 1e6


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced session (zero where a layer was not reached)."""

    children = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            children[s[3]] += s[2] - s[1]
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def idx(name, parents=None):
        return [i for i in by_name.get(name, ())
                if parents is None or (spans[i][3] >= 0 and spans[spans[i][3]][0] in parents)]

    def dur(ids):
        return [spans[i][2] - spans[i][1] for i in ids]

    def total(name, parents=None):
        return sum(dur(idx(name, parents)))

    def self_time(name):
        return sum(spans[i][2] - spans[i][1] - children[i] for i in idx(name))

    def last_note(name, default=0):
        ids = idx(name)
        return spans[ids[-1]][4] if ids else default

    m: dict[str, float] = {}
    forwards = {"snapshot": idx("network.forward", ("training.train",)),
                "evaluation": idx("network.forward", EVALUATION_PARENTS),
                "online": idx("network.forward", ("score",))}
    for kind, ids in forwards.items():
        m[f"network.forward.{kind}.calls"] = len(ids)
        m[f"network.forward.{kind}.rows"] = sum(spans[i][4][0] for i in ids)
        m[f"network.forward.{kind}.s"] = sum(dur(ids))
    online = dur(forwards["online"])
    m["network.forward.online.p50_us"] = _quantile_us(online, 50)
    m["network.forward.online.p99_us"] = _quantile_us(online, 99)
    attributed = [i for ids in forwards.values() for i in ids]
    busy = sum(dur(attributed))
    m["network.forward.gflops"] = (
        sum(spans[i][4][1] for i in attributed) / busy / 1e9 if busy > 0 else 0.0)

    m["returns.targets_from_estimates.calls"] = len(idx("returns.targets_from_estimates"))
    m["returns.targets_from_estimates.s"] = total("returns.targets_from_estimates")
    for name in ("network.batch_loss_and_grad", "network.optimizer_step"):
        d = dur(idx(name))
        m[f"{name}.calls"] = len(d)
        m[f"{name}.s"] = sum(d)
        m[f"{name}.p50_us"] = _quantile_us(d, 50)
        m[f"{name}.p99_us"] = _quantile_us(d, 99)
    m["network.save_checkpoint.s"] = total("network.save_checkpoint")
    m["network.load_checkpoint.s"] = total("network.load_checkpoint")
    m["network.checkpoint_mb"] = last_note("network.save_checkpoint") / 2**20

    samples = idx("replay.sample")
    refs = sum(spans[i][4][0] for i in samples)
    m["replay.build_index.s"] = total("replay.build_index")
    m["replay.sample.calls"] = len(samples)
    m["replay.sample.s"] = sum(dur(samples))
    m["replay.sample.p50_us"] = _quantile_us(dur(samples), 50)
    m["replay.collision_share"] = (
        sum(spans[i][4][1] for i in samples) / refs if refs else 0.0)

    m["training.train.s"] = total("training.train")
    m["training.self_s"] = self_time("training.train")
    m["training.snapshot_s"] = (m["network.forward.snapshot.s"]
                                + total("returns.targets_from_estimates", ("training.train",)))
    m["training.epoch_p50_s"] = _epoch_p50(spans, idx("training.train"))
    m["training.steps"] = len(idx("network.optimizer_step", ("training.train",)))

    m["evaluation.evaluate.calls"] = len(idx("evaluation.evaluate"))
    m["evaluation.evaluate.s"] = total("evaluation.evaluate")
    for name in ("collision_characteristic", "detection_rate", "oracle_errors"):
        m[f"evaluation.{name}.s"] = total(f"evaluation.{name}")
    m["evaluation.write_reports.s"] = sum(total(n) for n in REPORT_WRITERS)

    m["episodes.save_episodes.s"] = total("episodes.save_episodes")
    m["episodes.load_episodes.s"] = total("episodes.load_episodes")
    m["episodes.file_mb"] = last_note("episodes.save_episodes") / 2**20
    steps = sum(spans[i][4] for i in idx("envs.generate_episodes"))
    m["envs.generate_episodes.s"] = total("envs.generate_episodes")
    m["envs.steps"] = steps
    m["envs.step_us"] = m["envs.generate_episodes.s"] / steps * 1e6 if steps else 0.0
    m["oracle.dp_cumulative.s"] = total("oracle.dp_cumulative")
    m["oracle.brute_force_cumulative.s"] = total("oracle.brute_force_cumulative")
    m["config.load_config.s"] = total("config.load_config")
    for cmd in ("gen", "train", "eval"):
        m[f"cli.{cmd}.self_s"] = self_time(f"cli.cmd_{cmd}")
    return m


def _epoch_p50(spans, train_ids) -> float:
    """Median epoch: from the first snapshot forward, each ends with its held-out evaluate."""

    epochs = []
    for t in train_ids:
        start = None
        for s in spans:
            if s[3] != t:
                continue
            if start is None and s[0] == "network.forward":
                start = s[1]
            elif s[0] == "evaluation.evaluate" and start is not None:
                epochs.append(s[2] - start)
                start = s[2]
    return statistics.median(epochs) if epochs else 0.0


def invariants(spans, metrics, train_cfg: dict, rows_scored: int) -> list[tuple[str, bool, str]]:
    """Exact-count checks of one traced session: (name, passed, detail)."""

    notes = [s[4] for s in spans if s[0] == "training.train"]
    epochs = sum(n["epochs"] for n in notes)
    train_rows = notes[-1]["train_rows"] if notes else 0
    spe, batch = train_cfg["samples_per_epoch"], train_cfg["batch_size"]
    refs = sum(s[4][0] for s in spans if s[0] == "replay.sample")
    expected = [
        ("snapshot_rows", metrics["network.forward.snapshot.rows"], epochs * train_rows),
        ("sampled_refs", refs, epochs * spe),
        ("optimizer_steps", metrics["network.optimizer_step.calls"],
         epochs * math.ceil(spe / batch)),
        ("online_calls", metrics["network.forward.online.calls"], rows_scored),
        ("epochs_run", epochs, train_cfg["epochs"]),
    ]
    return [(name, got == want, f"{got} == {want}") for name, got, want in expected]
