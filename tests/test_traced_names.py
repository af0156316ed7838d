"""The benchmark's tracer (perfbench/spans.py) wraps package functions by
name. Every name it lists must resolve to a callable, so a rename or a
removal fails here rather than only in a benchmark run; and a traced
training run must pass the benchmark's exact-count checks."""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

import pytest

from riskhorizon.config import load_config
from riskhorizon.envs import generate_episodes

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def traced_names():
    names = [(layer, name) for layer, names in load_spans().TRACED.items() for name in names]
    return names + [("network", "MultiHeadEstimator.forward")]


@pytest.mark.parametrize("layer, name", traced_names(), ids=lambda v: str(v))
def test_every_traced_name_resolves_to_a_callable(layer, name):
    target = importlib.import_module(f"riskhorizon.{layer}")
    for attr in name.split("."):
        target = getattr(target, attr)
    assert callable(target)


def test_a_traced_training_run_passes_the_benchmark_invariants():
    spans = load_spans()
    training = importlib.import_module("riskhorizon.training")
    cfg = load_config(ROOT / "configs" / "chain_small.json")
    # 100 samples in batches of 16 end the epoch with a short batch.
    sizes = {"epochs": 2, "samples_per_epoch": 100, "batch_size": 16}
    arch = dataclasses.replace(cfg.estimator, backbone_layers=(8,), head_layers=(4, 1))
    # The training rows of 40 episodes fit in one snapshot group; those of
    # 400 span five, so each epoch's snapshot takes five forwards.
    for count, snapshot_calls in ((40, 1), (400, 5)):
        episodes, _ = generate_episodes(cfg.world, count, cfg.master_seed)
        tracer = spans.Tracer()
        with tracer.installed():
            # Through the module attribute, which the tracer rebinds.
            training.train(episodes, dataclasses.replace(cfg.train, **sizes), estimator_cfg=arch)
        metrics = spans.layer_metrics(tracer.spans)
        assert metrics["network.forward.snapshot.calls"] == sizes["epochs"] * snapshot_calls
        checks = spans.invariants(tracer.spans, metrics, sizes, 0)
        assert len(checks) >= 5
        assert [(name, detail) for name, passed, detail in checks if not passed] == []
