"""The benchmark's tracer (perfbench/spans.py) wraps package functions by
name. Every name it lists must resolve to a callable, so a rename or a
removal fails here rather than only in a benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    names = [(layer, name) for layer, names in spans.TRACED.items() for name in names]
    return names + [("network", "MultiHeadEstimator.forward")]


@pytest.mark.parametrize("layer, name", traced_names(), ids=lambda v: str(v))
def test_every_traced_name_resolves_to_a_callable(layer, name):
    target = importlib.import_module(f"riskhorizon.{layer}")
    for attr in name.split("."):
        target = getattr(target, attr)
    assert callable(target)
