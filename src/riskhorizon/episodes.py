"""Episode records and their line-delimited text persistence.

An episode is the unit of experience: one observation per step taken (the
state the step started from) and the reason the episode ended. A collision,
when present, is always the final step, so the end reason says which step,
if any, collided; the post-collision state is never observed, so it is
never recorded. The file still writes a collision flag per step, derived
from the end reason, and the loader checks the flags it reads against it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .artifacts import canonical_json, replacing
from .parallel import map_ranges

SCHEMA_VERSION = 1

# Fixed text precision for observation values. Nine significant digits is
# lossy: a float64 needs up to 17 to round-trip, and a corridor corpus read
# back differs from the one written by up to 5e-10. Schema v2, planned, will
# write shortest round-trip floats instead.
_FLOAT_FMT = "%.9g"

# The frame of a step line as save_episodes writes it: {"s":[...],"c":0|1}.
_STEP_HEAD = '{"s":['
_STEP_TAILS = ('],"c":0}\n', '],"c":1}\n')
_META_KEYS = {"seed", "terminal", "steps"}
# Step lines parsed in one go at most, which bounds the loader's memory.
_BLOCK_LINES = 1024


class Terminal(Enum):
    """Why an episode ended."""

    COLLISION = "collision"
    TIME_LIMIT = "time_limit"
    BLOCKED = "blocked"


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
    """Write episodes as line-delimited JSON records.

    Layout (one JSON object per line):
      {"h": {"version": 1, "spec_hash": ..., "obs_dim": D, "episodes": N}}
      {"e": {"seed": S, "terminal": "collision", "steps": T}}   once per episode
      {"s": [..obs..], "c": 0|1}                                 T step lines

    The flag "c" is derived from the terminal: 1 on the final step of a
    collision episode, 0 everywhere else. Observation numbers are written
    with 9 significant digits (`%.9g`), so the file does not round-trip
    float64 values exactly.

    Each episode's text depends on that episode alone, so ranges of episodes
    are encoded on every CPU this process may use (see
    `parallel.map_ranges`) when the recorded rows make that pay; their text
    is written in episode order as it arrives, and the bytes do not depend
    on the worker count. It is written through `artifacts.replacing`: an
    error or an interrupt leaves an existing file as it was and no partial one.
    """

    if not episodes or episodes[0].obs_dim < 1:
        raise ValueError("refusing to write an episode file without an episode or a feature")
    obs_dim = episodes[0].obs_dim
    if any(ep.obs_dim != obs_dim for ep in episodes):
        raise ValueError("episodes in one file must share obs_dim")
    step_line = _STEP_HEAD + ",".join([_FLOAT_FMT] * obs_dim) + '],"c":%d}\n'
    header = {
        "h": {
            "version": SCHEMA_VERSION,
            "spec_hash": spec_hash,
            "obs_dim": obs_dim,
            "episodes": len(episodes),
        }
    }
    with replacing(path) as fh:
        fh.write(canonical_json(header) + "\n")
        map_ranges(lambda lo, hi: _encode_records(episodes[lo:hi], step_line),
                   len(episodes), sum(ep.steps for ep in episodes), fh.write)


def _encode_records(episodes: list[Episode], step_line: str) -> str:
    """The episode and step lines of `episodes`, as save_episodes writes them."""

    parts = []
    for ep in episodes:
        meta = {"e": {"seed": int(ep.seed), "terminal": ep.terminal.value, "steps": ep.steps}}
        parts.append(canonical_json(meta) + "\n")
        *rows, last = ep.observations.tolist()
        parts.extend(step_line % (*row, 0) for row in rows)
        parts.append(step_line % (*last, ep.ends_in_collision))
    return "".join(parts)


def load_episodes(path: str | Path) -> tuple[list[Episode], dict]:
    """Read an episode file back; returns (episodes, header dict).

    Each episode's collision flags must be the ones the writer derives from
    its terminal; anything else is a SchemaError. The file is streamed. The
    step lines between two episode records are parsed with one `json.loads`
    over the whole run of lines when they are step lines as `save_episodes`
    writes them; otherwise that run is parsed line by line, which names the
    first bad line as `path:line`.
    """

    path = Path(path)
    episodes: list[Episode] = []
    try:
        with path.open("r", encoding="utf-8") as fh:
            head = _read_header(fh, path)
            obs_dim = head["obs_dim"]
            pending: dict | None = None
            # The current episode's steps: float64 [k, obs_dim] blocks and
            # their int64 collision flags, checked against the terminal.
            obs_parts: list[np.ndarray] = []
            flag_parts: list[np.ndarray] = []

            def finish() -> None:
                if not (isinstance(pending, dict) and _META_KEYS <= pending.keys()):
                    raise SchemaError(f"{path}: episode record needs seed, terminal and steps")
                found = sum(len(f) for f in flag_parts)
                if found != pending["steps"]:
                    raise SchemaError(
                        f"{path}: episode declared {pending['steps']} steps, found {found}"
                    )
                try:
                    terminal = Terminal(pending["terminal"])
                except ValueError as exc:
                    raise SchemaError(f"{path}: unknown terminal {pending['terminal']!r}") from exc
                try:
                    ep = Episode(
                        observations=np.concatenate(obs_parts) if obs_parts else np.empty(0),
                        terminal=terminal,
                        seed=int(pending["seed"]),
                    )
                except (TypeError, ValueError) as exc:
                    raise SchemaError(f"{path}: invalid episode: {exc}") from exc
                flags = np.concatenate(flag_parts)
                if flags[:-1].any() or flags[-1] != ep.ends_in_collision:
                    raise SchemaError(
                        f"{path}: episode {ep.seed} ({terminal.value}): collision flags must "
                        f"be 0 but for a final 1 on a collision episode"
                    )
                episodes.append(ep)

            def parse_line(line: str, lineno: int) -> None:
                nonlocal pending
                if not line.strip():
                    return
                rec = _parse_line(line, path, lineno)
                if "e" in rec:
                    if pending is not None:
                        finish()
                    pending = rec["e"]
                    obs_parts.clear()
                    flag_parts.clear()
                elif "s" in rec:
                    if pending is None:
                        raise SchemaError(f"{path}:{lineno}: step record before any episode")
                    obs, flag = _step_values(rec, obs_dim, path, lineno)
                    obs_parts.append(obs)
                    flag_parts.append(flag)
                else:
                    raise SchemaError(f"{path}:{lineno}: unrecognized record")

            def parse_block(block: list[str], first: int) -> None:
                steps = _parse_step_block(block, obs_dim) if pending is not None else None
                if steps is not None:
                    obs_parts.append(steps[0])
                    flag_parts.append(steps[1])
                    return
                for k, line in enumerate(block):
                    parse_line(line, first + k)

            # Lines that do not start an episode record collect in `block`
            # until the next one that does, or until the block is full.
            block: list[str] = []
            lineno = 1
            for line in fh:
                lineno += 1
                if line.startswith('{"e"'):
                    if block:
                        parse_block(block, lineno - len(block))
                        block = []
                    parse_line(line, lineno)
                else:
                    block.append(line)
                    if len(block) == _BLOCK_LINES:
                        parse_block(block, lineno + 1 - len(block))
                        block = []
            if block:
                parse_block(block, lineno + 1 - len(block))
            if pending is not None:
                finish()
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text: {exc}") from exc
    if len(episodes) != head["episodes"]:
        raise SchemaError(
            f"{path}: header declared {head['episodes']} episodes, found {len(episodes)}"
        )
    return episodes, dict(head)


def _read_header(fh, path: Path) -> dict:
    first = fh.readline()
    if not first:
        raise SchemaError(f"{path}: empty file")
    header = _parse_line(first, path, 1)
    head = header.get("h")
    if not isinstance(head, dict):
        raise SchemaError(f"{path}: first record must be the header")
    for key in ("version", "spec_hash", "obs_dim", "episodes"):
        if key not in head:
            raise SchemaError(f"{path}: header missing '{key}'")
    if head["version"] != SCHEMA_VERSION:
        raise SchemaError(
            f"{path}: schema version {head['version']} not supported "
            f"(expected {SCHEMA_VERSION})"
        )
    # save_episodes writes no file without an episode or a feature.
    for key in ("obs_dim", "episodes"):
        if type(head[key]) is not int or head[key] < 1:
            raise SchemaError(f"{path}: header '{key}' must be a positive integer")
    return head


def _is_number(v) -> bool:
    # bool is an int subclass; JSON true/false read as 1.0/0.0, as they always have.
    return isinstance(v, (int, float))


def _step_values(rec: dict, obs_dim: int, path: Path, lineno: int):
    """The checked [1, obs_dim] observation and [1] flag of one step record."""

    row = rec["s"]
    if not isinstance(row, list):
        raise SchemaError(f"{path}:{lineno}: observation must be a list of numbers")
    if len(row) != obs_dim:
        raise SchemaError(
            f"{path}:{lineno}: observation has {len(row)} values, header says {obs_dim}"
        )
    if not all(_is_number(v) for v in row):
        raise SchemaError(f"{path}:{lineno}: observation values must be numbers")
    flag = rec.get("c", 0)
    if not _is_number(flag) or flag not in (0, 1):
        raise SchemaError(f"{path}:{lineno}: collision flag must be 0 or 1")
    try:
        obs = np.array([row], dtype=np.float64)
    except OverflowError as exc:
        raise SchemaError(f"{path}:{lineno}: observation value out of range: {exc}") from exc
    return obs, np.array([int(flag)], dtype=np.int64)


def _parse_step_block(block: list[str], obs_dim: int):
    """(observations, flags) of a run of step lines as written, else None.

    Every line must carry the written frame {"s":[...],"c":0|1} and the
    block must hold no "[" or "{" besides the frames' own. Then each record
    closes on its own line, so one `json.loads` over the joined lines reads
    exactly what parsing each line alone would. None sends the caller to
    the line-by-line parser, which reports errors.
    """

    n = len(block)
    if not all(line.startswith(_STEP_HEAD) and line.endswith(_STEP_TAILS) for line in block):
        return None
    text = "[" + ",".join(block) + "]"
    if text.count("[") != n + 1 or text.count("{") != n:
        return None
    try:
        records = json.loads(text)
        obs = np.array([rec["s"] for rec in records])
    except ValueError:  # invalid JSON, or rows of unequal length
        return None
    # Numbers only: strings, null and nested lists go to the line parser.
    if obs.shape != (n, obs_dim) or obs.dtype.kind not in "bif":
        return None
    flags = np.array([rec["c"] for rec in records], dtype=np.int64)
    return obs.astype(np.float64, copy=False), flags


def _parse_line(line: str, path: Path, lineno: int) -> dict:
    try:
        rec = json.loads(line)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}:{lineno}: not valid JSON: {exc}") from exc
    if not isinstance(rec, dict):
        raise SchemaError(f"{path}:{lineno}: record must be an object")
    return rec
