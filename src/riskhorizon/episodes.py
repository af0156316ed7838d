"""Episode records and their line-delimited text persistence.

An episode is the unit of experience: one observation per step taken (the
state the step started from), one binary collision indicator per step, and
the reason the episode ended. A collision, when present, is always the final
step; the post-collision state is never observed, so it is never recorded.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

SCHEMA_VERSION = 1

# Fixed text precision for observation values. Nine significant digits keeps
# the files portable across platforms while staying exact for the feature
# scales used here.
_FLOAT_FMT = "%.9g"


class Terminal(Enum):
    """Why an episode ended."""

    COLLISION = "collision"
    TIME_LIMIT = "time_limit"
    BLOCKED = "blocked"


class SchemaError(ValueError):
    """An episode file does not match the documented schema."""


@dataclass(frozen=True)
class RewardTrace:
    """Binary step outcomes r_1..r_T of one episode plus its end reason.

    rewards[k] is the indicator for step k+1. At most one entry is 1; if
    present it is the last entry and terminal is COLLISION. Steps after a
    collision are never experienced, so nothing follows the 1.
    """

    rewards: tuple[int, ...]
    terminal: Terminal

    def __post_init__(self) -> None:
        if len(self.rewards) == 0:
            raise ValueError("a trace needs at least one step")
        if any(r not in (0, 1) for r in self.rewards):
            raise ValueError("rewards must be binary collision indicators")
        total = sum(self.rewards)
        if total > 1:
            raise ValueError("at most one collision per episode")
        if total == 1:
            if self.rewards[-1] != 1:
                raise ValueError("a collision must be the final step")
            if self.terminal is not Terminal.COLLISION:
                raise ValueError("collision reward requires COLLISION terminal")
        elif self.terminal is Terminal.COLLISION:
            raise ValueError("COLLISION terminal requires a final reward of 1")

    @property
    def steps(self) -> int:
        return len(self.rewards)

    @property
    def ends_in_collision(self) -> bool:
        return self.terminal is Terminal.COLLISION


@dataclass
class Episode:
    """One recorded episode.

    observations[t] is the state the step t+1 was taken from, so there are
    exactly as many observation rows as rewards. The state reached by the
    final step is not recorded: after a collision it does not exist, and
    after a truncation no target can ever be anchored there.
    """

    observations: np.ndarray
    rewards: np.ndarray
    terminal: Terminal
    seed: int

    def __post_init__(self) -> None:
        self.observations = np.asarray(self.observations, dtype=np.float64)
        self.rewards = np.asarray(self.rewards, dtype=np.int64)
        if self.observations.ndim != 2:
            raise ValueError("observations must be a [steps, obs_dim] matrix")
        if self.rewards.ndim != 1:
            raise ValueError("rewards must be a flat vector")
        if self.observations.shape[0] != self.rewards.shape[0]:
            raise ValueError("one observation row per step is required")
        # Validates the binary/terminal invariants as a side effect.
        self.trace()

    @property
    def steps(self) -> int:
        return int(self.rewards.shape[0])

    @property
    def obs_dim(self) -> int:
        return int(self.observations.shape[1])

    def trace(self) -> RewardTrace:
        return RewardTrace(tuple(int(r) for r in self.rewards), self.terminal)


def spec_fingerprint(spec_fields: dict) -> str:
    """Short stable hash of an environment description."""

    canonical = json.dumps(spec_fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _format_obs(row: np.ndarray) -> str:
    return "[" + ",".join(_FLOAT_FMT % v for v in row) + "]"


def save_episodes(path: str | Path, episodes: list[Episode], spec_hash: str) -> None:
    """Write episodes as line-delimited JSON records.

    Layout (one JSON object per line):
      {"h": {"version": 1, "spec_hash": ..., "obs_dim": D, "episodes": N}}
      {"e": {"seed": S, "terminal": "collision", "steps": T}}   once per episode
      {"s": [..obs..], "c": 0|1}                                 T step lines

    Observation numbers are written with fixed 9-significant-digit precision.
    """

    if not episodes:
        raise ValueError("refusing to write an empty episode file")
    obs_dim = episodes[0].obs_dim
    if any(ep.obs_dim != obs_dim for ep in episodes):
        raise ValueError("episodes in one file must share obs_dim")
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        header = {
            "h": {
                "version": SCHEMA_VERSION,
                "spec_hash": spec_hash,
                "obs_dim": obs_dim,
                "episodes": len(episodes),
            }
        }
        fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n")
        for ep in episodes:
            meta = {
                "e": {
                    "seed": int(ep.seed),
                    "terminal": ep.terminal.value,
                    "steps": ep.steps,
                }
            }
            fh.write(json.dumps(meta, sort_keys=True, separators=(",", ":")) + "\n")
            for t in range(ep.steps):
                fh.write(
                    '{"s":%s,"c":%d}\n' % (_format_obs(ep.observations[t]), int(ep.rewards[t]))
                )


def load_episodes(path: str | Path) -> tuple[list[Episode], dict]:
    """Read an episode file back; returns (episodes, header dict)."""

    path = Path(path)
    episodes: list[Episode] = []
    with path.open("r", encoding="utf-8") as fh:
        first = fh.readline()
        if not first:
            raise SchemaError(f"{path}: empty file")
        header = _parse_line(first, path, 1)
        if "h" not in header:
            raise SchemaError(f"{path}: first record must be the header")
        head = header["h"]
        for key in ("version", "spec_hash", "obs_dim", "episodes"):
            if key not in head:
                raise SchemaError(f"{path}: header missing '{key}'")
        if head["version"] != SCHEMA_VERSION:
            raise SchemaError(
                f"{path}: schema version {head['version']} not supported "
                f"(expected {SCHEMA_VERSION})"
            )
        obs_dim = int(head["obs_dim"])
        lineno = 1
        pending: dict | None = None
        obs_rows: list[list[float]] = []
        flags: list[int] = []

        def finish() -> None:
            assert pending is not None
            if len(obs_rows) != pending["steps"]:
                raise SchemaError(
                    f"{path}: episode declared {pending['steps']} steps, "
                    f"found {len(obs_rows)}"
                )
            try:
                terminal = Terminal(pending["terminal"])
            except ValueError as exc:
                raise SchemaError(f"{path}: unknown terminal {pending['terminal']!r}") from exc
            try:
                episodes.append(
                    Episode(
                        observations=np.array(obs_rows, dtype=np.float64),
                        rewards=np.array(flags, dtype=np.int64),
                        terminal=terminal,
                        seed=int(pending["seed"]),
                    )
                )
            except ValueError as exc:
                raise SchemaError(f"{path}: invalid episode: {exc}") from exc

        for line in fh:
            lineno += 1
            if not line.strip():
                continue
            rec = _parse_line(line, path, lineno)
            if "e" in rec:
                if pending is not None:
                    finish()
                pending = rec["e"]
                obs_rows, flags = [], []
            elif "s" in rec:
                if pending is None:
                    raise SchemaError(f"{path}:{lineno}: step record before any episode")
                row = rec["s"]
                if len(row) != obs_dim:
                    raise SchemaError(
                        f"{path}:{lineno}: observation has {len(row)} values, "
                        f"header says {obs_dim}"
                    )
                obs_rows.append([float(v) for v in row])
                flags.append(int(rec.get("c", 0)))
            else:
                raise SchemaError(f"{path}:{lineno}: unrecognized record")
        if pending is not None:
            finish()
    if len(episodes) != head["episodes"]:
        raise SchemaError(
            f"{path}: header declared {head['episodes']} episodes, found {len(episodes)}"
        )
    return episodes, dict(head)


def _parse_line(line: str, path: Path, lineno: int) -> dict:
    try:
        rec = json.loads(line)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}:{lineno}: not valid JSON: {exc}") from exc
    if not isinstance(rec, dict):
        raise SchemaError(f"{path}:{lineno}: record must be an object")
    return rec
