"""Every Python source parses as the oldest Python the project supports.

pyproject.toml declares `requires-python = ">=3.10"`, and CI runs tier-1 on
3.10 as well; this catches newer syntax (`except*`, `type` statements,
generic parameter lists) on any interpreter. `feature_version` checks
grammar only, not library calls.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for top in ("src", "tests", "perfbench") for p in (ROOT / top).rglob("*.py"))


def test_the_sources_are_found():
    assert ROOT / "src" / "riskhorizon" / "network.py" in SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_source_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
