"""Strict, versioned run configuration for the command line.

One JSON document configures a whole run, and `load_config` validates all of
it, whichever command reads it. Unknown keys anywhere are rejected with
their path, so typos fail loudly instead of silently falling back to
defaults. Values have strict JSON types: an integer key takes only an
integer (not `true`, `3.9` or `"7"`), a float key an integer or a finite
float, and a `tuple[...]` field a list of its item type. Each section but
`gen` is read from the dataclass it builds (the world `env.kind` picks,
`HorizonConfig`, `LossWeights`, `EstimatorConfig`, `TrainConfig`, and
`DetectionGrid` for `eval`): its keys, their types and its required keys are
that class's fields (`lam` is keyed `lambda`), their annotations and the
fields without a default. Fields derived from other sections are not keys:
the estimator's `input_dim`, `n_heads` and `init_seed` (from `master_seed`),
and the train section's `horizon`, `loss` and `master_seed`. Only the keys
the document sets are passed on, so defaults live in those classes alone.
Any malformed value raises a `ConfigError` that names its key path.
Checkpoints store their estimator (its `init_seed` included), horizon and
loss sections in the same shape, every key required (`to_section`,
`saved_sections`).
"""

from __future__ import annotations

import json
import sys
import typing
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path

from .envs import MAX_EPISODES, ChainWorld, CorridorWorld
from .evaluation import DetectionGrid
from .network import EstimatorConfig, LossWeights
from .returns import HorizonConfig
from .training import TrainConfig

CONFIG_VERSION = 1

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
    detection: DetectionGrid


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


def _json_type(hint, name: str):
    """The JSON type of the field `name` annotated `hint`, as `_typed` takes it."""

    if hint in _TYPE_NAMES:
        return hint
    if typing.get_origin(hint) is tuple and typing.get_args(hint)[1:] == (Ellipsis,):
        return [_json_type(typing.get_args(hint)[0], name)]
    raise TypeError(f"{name}: a field annotated {hint!r} has no JSON type")


def _build(path: str, make, *args, **kwargs):
    """make(*args, **kwargs), with a rejected value reported under `path`."""

    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _load(raw, path: str, cls, /, every_key=False, **given):
    """`cls` built from section `raw`, whose keys are the fields of `cls` other
    than those `given`. A field without a default is required, and with
    `every_key` all are."""

    hints = typing.get_type_hints(cls)
    keys, required = {}, []
    for f in fields(cls):
        if f.name not in given:
            key = _KEY_OF_FIELD.get(f.name, f.name)
            keys[key] = _json_type(hints[f.name], f"{cls.__name__}.{f.name}")
            if every_key or (f.default is MISSING and f.default_factory is MISSING):
                required.append(key)
    values = {**given, **_section(raw, path, keys, required)}
    return _build(path, cls, **values)


def to_section(obj) -> dict:
    """Every field of a HorizonConfig, LossWeights or EstimatorConfig, by key."""

    return {_KEY_OF_FIELD.get(name, name): v for name, v in asdict(obj).items()}


def saved_sections(doc: dict) -> list:
    """The EstimatorConfig, HorizonConfig and LossWeights of a checkpoint."""

    return [_load(doc[name], name, cls, every_key=True) for name, cls in
            (("estimator", EstimatorConfig), ("horizon", HorizonConfig), ("loss", LossWeights))]


def _world(raw) -> ChainWorld | CorridorWorld:
    if not isinstance(raw, dict):
        raise ConfigError("env: must be an object")
    kind = _require(raw, "kind", "env")
    if kind not in ("chain", "corridor"):
        raise ConfigError(f"env.kind: unknown environment {kind!r}")
    make = ChainWorld if kind == "chain" else CorridorWorld
    return _load({key: v for key, v in raw.items() if key != "kind"}, "env", make)


def load_config(path: str | Path, seed_override: int | None = None) -> RunConfig:
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise ConfigError(f"{path}: no such config file") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
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
        if not 1 <= gen_count <= MAX_EPISODES:
            raise ConfigError(f"gen.count: must be >= 1 and at most {MAX_EPISODES}")

    horizon = _load(_require(raw, "horizon", "config"), "horizon", HorizonConfig)
    if isinstance(world, CorridorWorld) and world.delta_t != horizon.delta_t:
        raise ConfigError(f"env.delta_t: must equal horizon.delta_t, got {world.delta_t}")
    loss = _load(raw.get("loss", {}), "loss", LossWeights)
    # A stable derivation, so that a run reproduces byte for byte.
    estimator = _load(raw.get("estimator", {}), "estimator", EstimatorConfig,
                      input_dim=world.obs_dim, n_heads=horizon.n_heads,
                      init_seed=(master_seed * 2654435761 + 17) % (2**31))
    train = None
    if "train" in raw:
        train = _load(raw["train"], "train", TrainConfig, horizon=horizon, loss=loss,
                      master_seed=master_seed)

    detection = _load(raw.get("eval", {}), "eval", DetectionGrid)
    return RunConfig(master_seed=master_seed, world=world, gen_count=gen_count, horizon=horizon,
                     loss=loss, estimator=estimator, train=train, detection=detection)
