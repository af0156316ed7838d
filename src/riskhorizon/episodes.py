"""Episode records and their binary file.

An episode is the unit of experience: one observation per step taken (the
state the step started from) and the reason the episode ended. A collision,
when present, is always the final step, so the end reason says which step,
if any, collided; the post-collision state is never observed, so it is
never recorded.

An episode file (version 2) is the uncompressed `.npz` archive that
`np.savez` writes for exactly these members:

  header        uint8 [bytes]            UTF-8 JSON: format, version, obs_dim,
                                         episodes, spec_hash
  observations  float64 [rows, obs_dim]  every episode's rows, end to end;
                                         exact and finite
  steps         int64 [episodes]         rows per episode, each >= 1
  terminal      int8 [episodes]          index into TERMINAL_CODES
  seed          uint64 [episodes]
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .artifacts import canonical_json, replacing

FORMAT = "riskhorizon-episodes"
SCHEMA_VERSION = 2


class Terminal(Enum):
    """Why an episode ended."""

    COLLISION = "collision"
    TIME_LIMIT = "time_limit"
    BLOCKED = "blocked"


# The file's terminal codes: code k means TERMINAL_CODES[k]. Append only.
TERMINAL_CODES = (Terminal.COLLISION, Terminal.TIME_LIMIT, Terminal.BLOCKED)
# Every member of the archive, in the order written, with its dtype.
MEMBERS = {"header": np.uint8, "observations": np.float64, "steps": np.int64,
           "terminal": np.int8, "seed": np.uint64}
_HEADER_KEYS = {"format", "version", "obs_dim", "episodes", "spec_hash"}


class SchemaError(ValueError):
    """An episode file does not match the documented schema."""


@dataclass
class Episode:
    """One recorded episode.

    observations[t] is the state step t+1 was taken from, one row per step.
    The state reached by the final step is not recorded: after a collision
    it does not exist, and after a truncation no target can ever be
    anchored there. The terminal alone states the outcome: the collision
    indicator is 1 on the final step of a COLLISION episode and 0 on every
    other step.
    """

    observations: np.ndarray
    terminal: Terminal
    seed: int

    def __post_init__(self) -> None:
        self.observations = np.asarray(self.observations, dtype=np.float64)
        if self.observations.ndim != 2 or self.observations.shape[0] < 1:
            raise ValueError("observations must be a [steps, obs_dim] matrix with steps >= 1")
        if not isinstance(self.terminal, Terminal):
            raise TypeError(f"terminal must be a Terminal, not {self.terminal!r}")

    @property
    def steps(self) -> int:
        return int(self.observations.shape[0])

    @property
    def obs_dim(self) -> int:
        return int(self.observations.shape[1])

    @property
    def ends_in_collision(self) -> bool:
        return self.terminal is Terminal.COLLISION


def save_episodes(path: str | Path, episodes: list[Episode], spec_hash: str) -> None:
    """Write episodes as one version 2 file at exactly `path`, through
    `artifacts.replacing`; the same episodes always write the same bytes.

    Refuses no episode or feature, unequal widths, a non-finite observation,
    a seed that is not an integer (a Python or NumPy one, not a bool) and one
    outside uint64 (OverflowError). Each episode's rows go straight into the
    observations member: the corpus is never copied into one matrix or one
    bytes object.
    """

    import zipfile  # only the file codec needs it; `riskhorizon --version` does not

    if not episodes or episodes[0].obs_dim < 1:
        raise ValueError("refusing to write an episode file without an episode or a feature")
    obs_dim = episodes[0].obs_dim
    if any(ep.obs_dim != obs_dim for ep in episodes):
        raise ValueError("episodes in one file must share obs_dim")
    for k, ep in enumerate(episodes):
        if isinstance(ep.seed, bool) or not isinstance(ep.seed, (int, np.integer)):
            raise ValueError(f"refusing to write a seed that is not an integer "
                             f"(episode {k}: {ep.seed!r})")
        row = _first_non_finite_row(ep.observations)
        if row is not None:
            raise ValueError(f"refusing to write a non-finite observation value "
                             f"(episode {k}, row {row})")
    codes = {t: k for k, t in enumerate(TERMINAL_CODES)}
    header = {"format": FORMAT, "version": SCHEMA_VERSION, "obs_dim": obs_dim,
              "episodes": len(episodes), "spec_hash": spec_hash}
    members = {
        "header": [np.frombuffer(canonical_json(header).encode(), dtype=np.uint8)],
        "observations": [np.ascontiguousarray(ep.observations) for ep in episodes],
        "steps": [np.array([ep.steps for ep in episodes], dtype=np.int64)],
        "terminal": [np.array([codes[ep.terminal] for ep in episodes], dtype=np.int8)],
        "seed": [np.array([int(ep.seed) for ep in episodes], dtype=np.uint64)],
    }
    with replacing(path, binary=True) as fh, zipfile.ZipFile(fh, "w") as archive:
        for name, parts in members.items():
            shape = (sum(len(part) for part in parts), *parts[0].shape[1:])
            with archive.open(name + ".npy", "w", force_zip64=True) as member:
                np.lib.format.write_array_header_1_0(
                    member, {"descr": parts[0].dtype.str, "fortran_order": False, "shape": shape})
                for part in parts:
                    member.write(part.data)


def load_episodes(path: str | Path) -> tuple[list[Episode], dict]:
    """Read an episode file back; returns (episodes, header dict).

    Every episode's observations are a view into the file's one matrix.
    Anything but a valid version 2 file is a SchemaError, including a version
    1 file (line-delimited JSON; `gen` rebuilds any episode file bit for bit)
    and a non-finite observation, which is named by episode and row.
    """

    import zipfile
    from tokenize import TokenError

    path = Path(path)
    with path.open("rb") as fh:
        magic = fh.read(4)
        if magic.startswith(b"{"):
            raise SchemaError(f"{path}: a version 1 (JSONL) episode file; this version reads "
                              f"version {SCHEMA_VERSION}: re-run `riskhorizon gen` to rebuild it")
        if magic != b"PK\x03\x04":
            raise SchemaError(f"{path}: not an episode file (version 2 is a zip archive)")
        fh.seek(0)
        try:
            with np.load(fh, allow_pickle=False) as archive:
                arrays = {name: archive[name] for name in archive.files}
        # A cut or corrupt archive (zip structure, CRC, flags or offsets; an
        # .npy header, or one declaring a shape too large to allocate), or
        # a pickled member.
        except (zipfile.BadZipFile, EOFError, ValueError, TokenError, NotImplementedError,
                RuntimeError, OSError, MemoryError) as exc:
            raise SchemaError(f"{path}: corrupt episode archive: {exc}") from exc
    if arrays.keys() != MEMBERS.keys():
        raise SchemaError(f"{path}: archive members {sorted(arrays)}, expected {sorted(MEMBERS)}")
    head = _header(arrays["header"], path)
    observations, steps, terminal = arrays["observations"], arrays["steps"], arrays["terminal"]
    n = head["episodes"]
    shapes = {"header": (arrays["header"].size,), "steps": (n,), "terminal": (n,), "seed": (n,),
              "observations": (*observations.shape[:1], head["obs_dim"])}
    for name, dtype in MEMBERS.items():
        if arrays[name].dtype != dtype or arrays[name].shape != shapes[name]:
            raise SchemaError(f"{path}: member '{name}' must be {np.dtype(dtype).name} of shape "
                              f"{shapes[name]}, not {arrays[name].dtype} of shape "
                              f"{arrays[name].shape}")
    if steps.min() < 1 or steps.max() > len(observations) or steps.sum() != len(observations):
        raise SchemaError(f"{path}: step counts must each be at least 1 and sum to the "
                          f"{len(observations)} observation rows")
    if terminal.min() < 0 or terminal.max() >= len(TERMINAL_CODES):
        raise SchemaError(f"{path}: unknown terminal code (0..{len(TERMINAL_CODES) - 1} defined)")
    ends = np.cumsum(steps)
    row = _first_non_finite_row(observations)
    if row is not None:
        k = int(np.searchsorted(ends, row, side="right"))
        raise SchemaError(f"{path}: non-finite observation value "
                          f"(episode {k}, row {row - int(ends[k] - steps[k])})")
    episodes = [Episode(obs, TERMINAL_CODES[code], seed)
                for obs, code, seed in zip(np.split(observations, ends[:-1]), terminal.tolist(),
                                           arrays["seed"].tolist())]
    return episodes, head


def _header(raw: np.ndarray, path: Path) -> dict:
    try:
        head = json.loads(raw.tobytes().decode("utf-8"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise SchemaError(f"{path}: header is not UTF-8 JSON text: {exc}") from exc
    if not isinstance(head, dict) or head.keys() != _HEADER_KEYS:
        raise SchemaError(f"{path}: header must be an object with exactly the keys "
                          f"{sorted(_HEADER_KEYS)}")
    if (head["format"], head["version"]) != (FORMAT, SCHEMA_VERSION):
        raise SchemaError(f"{path}: format {head['format']!r} version {head['version']!r} not "
                          f"supported (expected {FORMAT!r} version {SCHEMA_VERSION})")
    # save_episodes writes no file without an episode or a feature.
    for key in ("obs_dim", "episodes"):
        if type(head[key]) is not int or head[key] < 1:
            raise SchemaError(f"{path}: header '{key}' must be a positive integer")
    return head


def _first_non_finite_row(observations: np.ndarray) -> int | None:
    finite = np.isfinite(observations).all(axis=1)
    return None if finite.all() else int(np.argmin(finite))
