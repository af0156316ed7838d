"""Strict, versioned run configuration for the command line.

One JSON document configures a whole run, and `load_config` validates all of
it, whichever command reads it. Unknown keys anywhere are rejected with
their path, so typos fail loudly instead of silently falling back to
defaults. Values have strict JSON types: an integer key takes only an
integer (not `true`, `3.9` or `"7"`), a float key an integer or a finite
float. Each section is turned into the object it configures (the world,
`HorizonConfig`, `LossWeights`, `EstimatorConfig`, `TrainConfig`, the
detection grid) at load time, passing only the keys the document sets, so
defaults live in those classes alone. Any malformed value raises a
`ConfigError` that names its key path. Checkpoints store their estimator,
horizon and loss sections in the same shape (`to_section`, `saved_sections`).
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

from .envs import ChainWorld, ChainWorldSpec, CorridorWorld, CorridorWorldSpec
from .evaluation import DEFAULT_INTERVALS, DEFAULT_THRESHOLDS, check_detection_grid
from .network import EstimatorConfig, LossWeights
from .returns import HorizonConfig
from .training import TrainConfig

CONFIG_VERSION = 1

# The JSON type of every key per section: int, float, str, or [kind] for a
# list of such values.
CHAIN_ENV_KEYS = {"kind": str, "n_states": int, "hazard": [float], "transition": [[float]],
                  "start_distribution": [float], "max_steps": int, "stack_frames": int}
CORRIDOR_ENV_KEYS = {**{key: type(value) for key, value in CorridorWorldSpec().fields().items()},
                     "stack_frames": int}
HORIZON_KEYS = {"delta_t": float, "n_heads": int, "lambda": float, "trunc_n": int}
LOSS_KEYS = {"c_interval": float, "c_chain": float, "p_collision": float, "p_noncollision": float}
ESTIMATOR_KEYS = {"backbone_layers": [int], "head_layers": [int], "activation": str,
                  "init_seed": int}
TRAIN_KEYS = {"epochs": int, "samples_per_epoch": int, "batch_size": int, "lr_start": float,
              "lr_end": float, "eval_fraction": float, "checkpoint_every": int}
EVAL_KEYS = {"thresholds": [float], "intervals": [[float]]}
# A checkpoint's sections, every key required. Its estimator also records
# the input width and head count a config derives from its env and horizon.
SAVED_SECTIONS = {
    "estimator": (EstimatorConfig, {"input_dim": int, "n_heads": int, **ESTIMATOR_KEYS}),
    "horizon": (HorizonConfig, HORIZON_KEYS),
    "loss": (LossWeights, LOSS_KEYS),
}
# Fields whose key differs (`lambda` is a Python keyword).
_KEY_OF_FIELD = {"lam": "lambda"}
_TYPE_NAMES = {int: "an integer", float: "a finite number", str: "a string"}


class ConfigError(ValueError):
    """The configuration file is missing, malformed, or inconsistent."""


@dataclass
class RunConfig:
    """A validated run configuration: the objects its sections configure."""

    master_seed: int
    world: ChainWorld | CorridorWorld
    gen_count: int | None
    horizon: HorizonConfig
    loss: LossWeights
    estimator: EstimatorConfig
    train: TrainConfig | None
    thresholds: tuple[float, ...]
    intervals: tuple[tuple[float, float], ...]


def _require(section: dict, key: str, path: str):
    if key not in section:
        raise ConfigError(f"{path}.{key}: required key is missing")
    return section[key]


def _check_keys(section, allowed, path: str) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"{path}: must be an object")
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ConfigError(f"{path}.{unknown[0]}: unknown key")


def _typed(value, kind, path: str):
    """`value` if it has the JSON type `kind` (a float key also takes an integer)."""

    if isinstance(kind, list):
        if not isinstance(value, list):
            raise ConfigError(f"{path}: expected a list, got {value!r}")
        return [_typed(v, kind[0], f"{path}[{i}]") for i, v in enumerate(value)]
    ok = type(value) is kind
    if kind is float and type(value) in (int, float):
        # Rejects NaN and Infinity, which json reads, and integers a float
        # cannot hold.
        ok = abs(value) <= sys.float_info.max
        value = float(value) if ok else value
    if not ok:
        raise ConfigError(f"{path}: expected {_TYPE_NAMES[kind]}, got {value!r}")
    return value


def _section(raw, path: str, keys: dict, required=()) -> dict:
    """The keys `raw` sets, each checked against its type in `keys`, by the
    name of the field each sets."""

    _check_keys(raw, keys, path)
    for key in required:
        _require(raw, key, path)
    field_of_key = {key: name for name, key in _KEY_OF_FIELD.items()}
    return {field_of_key.get(key, key): _typed(value, keys[key], f"{path}.{key}")
            for key, value in raw.items()}


def _build(path: str, make, *args, **kwargs):
    """make(*args, **kwargs), with a rejected value reported under `path`."""

    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def to_section(obj) -> dict:
    """Every field of a HorizonConfig, LossWeights or EstimatorConfig, by key."""

    return {_KEY_OF_FIELD.get(name, name): v for name, v in asdict(obj).items()}


def saved_sections(doc: dict) -> list:
    """The EstimatorConfig, HorizonConfig and LossWeights of a checkpoint."""

    return [_build(name, cls, **_section(doc[name], name, keys, required=keys))
            for name, (cls, keys) in SAVED_SECTIONS.items()]


def _world(raw) -> ChainWorld | CorridorWorld:
    if not isinstance(raw, dict):
        raise ConfigError("env: must be an object")
    kind = _require(raw, "kind", "env")
    world_keys = {"stack_frames"}
    if kind == "chain":
        fields = _section(raw, "env", CHAIN_ENV_KEYS,
                          required=("n_states", "hazard", "transition", "start_distribution"))
        make_world, make_spec = ChainWorld, ChainWorldSpec
        world_keys.add("max_steps")  # a chain's step limit belongs to the world, not its spec
    elif kind == "corridor":
        fields = _section(raw, "env", CORRIDOR_ENV_KEYS)
        make_world, make_spec = CorridorWorld, CorridorWorldSpec
    else:
        raise ConfigError(f"env.kind: unknown environment {kind!r}")
    del fields["kind"]
    world_args = {key: fields.pop(key) for key in world_keys & fields.keys()}
    return _build("env", make_world, _build("env", make_spec, **fields), **world_args)


def load_config(path: str | Path, seed_override: int | None = None) -> RunConfig:
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise ConfigError(f"{path}: no such config file") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    _check_keys(
        raw,
        {"version", "master_seed", "env", "gen", "horizon", "estimator", "loss", "train", "eval"},
        "config",
    )
    version = _require(raw, "version", "config")
    if type(version) is not int or version != CONFIG_VERSION:
        raise ConfigError(f"config.version: expected {CONFIG_VERSION}, got {version!r}")
    master_seed = _typed(_require(raw, "master_seed", "config"), int, "config.master_seed")
    if master_seed < 0:
        raise ConfigError("config.master_seed: must be >= 0")
    if seed_override is not None:
        if seed_override < 0:
            raise ConfigError("--seed: must be >= 0")
        master_seed = seed_override

    world = _world(_require(raw, "env", "config"))

    gen_count = None
    if "gen" in raw:
        gen_count = _section(raw["gen"], "gen", {"count": int}, required=("count",))["count"]
        if gen_count < 1:
            raise ConfigError("gen.count: must be >= 1")

    horizon = _build("horizon", HorizonConfig, **_section(
        _require(raw, "horizon", "config"), "horizon", HORIZON_KEYS, required=HORIZON_KEYS))
    loss = _build("loss", LossWeights, **_section(raw.get("loss", {}), "loss", LOSS_KEYS))

    arch = _section(raw.get("estimator", {}), "estimator", ESTIMATOR_KEYS)
    # Stable derivation so a config without an explicit seed still
    # reproduces byte-for-byte.
    arch.setdefault("init_seed", (master_seed * 2654435761 + 17) % (2**31))
    estimator = _build("estimator", EstimatorConfig, input_dim=world.obs_dim,
                       n_heads=horizon.n_heads, **arch)

    train = None
    if "train" in raw:
        fields = _section(raw["train"], "train", TRAIN_KEYS,
                          required=("epochs", "samples_per_epoch"))
        train = _build("train", TrainConfig, horizon=horizon, loss=loss, master_seed=master_seed,
                       **fields)

    grid = _section(raw.get("eval", {}), "eval", EVAL_KEYS)
    thresholds = tuple(grid.get("thresholds", DEFAULT_THRESHOLDS))
    intervals = grid.get("intervals", DEFAULT_INTERVALS)
    for i, pair in enumerate(intervals):
        if len(pair) != 2:
            raise ConfigError(f"eval.intervals[{i}]: expected a [lo, hi] pair, got {pair!r}")
    intervals = tuple(tuple(pair) for pair in intervals)
    _build("eval", check_detection_grid, thresholds, intervals)

    return RunConfig(
        master_seed=master_seed,
        world=world,
        gen_count=gen_count,
        horizon=horizon,
        loss=loss,
        estimator=estimator,
        train=train,
        thresholds=thresholds,
        intervals=intervals,
    )
