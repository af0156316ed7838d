"""How every artifact goes to disk. Files are written beside their target and
renamed over it once complete, so an error, a full disk or Ctrl-C leaves an
existing file as it was; JSON and table numbers have fixed formats, so
identical inputs write identical bytes."""

import json
import math
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np


def canonical_json(doc) -> str:
    # NaN and infinity are not JSON; an undefined number is written as null (nan_to_null).
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)


def nan_to_null(value: float) -> float | None:
    return None if math.isnan(value) else float(value)


@contextmanager
def replacing(path: str | Path, binary: bool = False):
    """A handle on `.<name>.<pid>.tmp` beside `path`, renamed over `path`
    when the block succeeds and removed if anything is raised; UTF-8 text
    unless `binary`. A symlink at `path` is replaced, and the new file gets
    the default mode for new files."""

    path = Path(path)
    tmp = path.parent / f".{path.name}.{os.getpid()}.tmp"
    try:
        with (tmp.open("wb") if binary else tmp.open("w", encoding="utf-8")) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path: str | Path, doc) -> None:
    with replacing(path) as fh:
        fh.write(canonical_json(doc) + "\n")


def write_table(path: str | Path, kind: str, columns: list[str], rows, version: int = 1) -> None:
    """Tab-delimited rows under a `# riskhorizon-<kind> v<version>` line and
    a column line; integers are written in decimal, floats as `%.12g`."""

    lines = [f"# riskhorizon-{kind} v{version}", "\t".join(columns)]
    lines.extend("\t".join(_cell(v) for v in row) for row in rows)
    with replacing(path) as fh:
        fh.write("\n".join(lines) + "\n")


def _cell(value) -> str:
    return ("%d" if isinstance(value, (int, np.integer)) else "%.12g") % value
