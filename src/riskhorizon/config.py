"""Strict, versioned run configuration for the command line.

One JSON document configures a whole run. Validation is strict: unknown keys
anywhere are rejected with their path, so typos fail loudly instead of
silently falling back to defaults.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .envs import ChainWorld, ChainWorldSpec, CorridorWorld, CorridorWorldSpec
from .network import EstimatorConfig, LossWeights
from .returns import HorizonConfig
from .training import TrainConfig

CONFIG_VERSION = 1

# Reference hyperparameter preset selected by --paper-parity: the published
# training setup this implementation mirrors at desk scale.
PARITY_HORIZON = {"delta_t": 0.1, "n_heads": 20, "lambda": 0.8, "trunc_n": 10}
PARITY_LOSS = {"c_interval": 1.0, "c_chain": 1.0, "p_collision": 0.25, "p_noncollision": 0.025}
PARITY_TRAIN = {"epochs": 50, "samples_per_epoch": 6000, "lr_start": 1e-5, "lr_end": 1e-6}


class ConfigError(ValueError):
    """The configuration file is missing, malformed, or inconsistent."""


def _require(section: dict, key: str, path: str):
    if key not in section:
        raise ConfigError(f"{path}.{key}: required key is missing")
    return section[key]


def _value(convert, value, path: str):
    """convert(value), with a failure reported as a ConfigError naming `path`."""

    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{path}: invalid value {value!r} ({exc})") from exc


def _floats(values) -> list[float]:
    return [float(v) for v in values]


def _ints(values) -> list[int]:
    return [int(v) for v in values]


def _check_keys(section: dict, allowed: set[str], path: str) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"{path}: must be an object")
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ConfigError(f"{path}.{unknown[0]}: unknown key")


@dataclass
class RunConfig:
    master_seed: int
    env_fields: dict
    stack_frames: int
    gen_count: int | None
    horizon: HorizonConfig
    loss: LossWeights
    estimator_arch: dict
    train_fields: dict | None
    thresholds: tuple[float, ...] | None
    intervals: tuple[tuple[float, float], ...] | None

    @property
    def env_kind(self) -> str:
        return self.env_fields["kind"]

    def chain_spec(self) -> ChainWorldSpec:
        if self.env_kind != "chain":
            raise ConfigError("this command needs a chain environment")
        f = self.env_fields
        return ChainWorldSpec(
            n_states=f["n_states"],
            hazard=tuple(f["hazard"]),
            transition=tuple(tuple(r) for r in f["transition"]),
            start_distribution=tuple(f["start_distribution"]),
        )

    def build_world(self):
        if self.env_kind == "chain":
            return ChainWorld(
                self.chain_spec(),
                max_steps=self.env_fields["max_steps"],
                stack_frames=self.stack_frames,
            )
        f = dict(self.env_fields)
        f.pop("kind")
        return CorridorWorld(CorridorWorldSpec(**f), stack_frames=self.stack_frames)

    def expected_obs_dim(self) -> int:
        from .envs import expected_obs_dim

        return expected_obs_dim(self.env_fields, self.stack_frames)

    def train_config(self) -> TrainConfig:
        if self.train_fields is None:
            raise ConfigError("train: section is required for training")
        return TrainConfig(
            horizon=self.horizon,
            loss=self.loss,
            master_seed=self.master_seed,
            **self.train_fields,
        )

    def estimator_config(self, input_dim: int) -> EstimatorConfig:
        arch = self.estimator_arch
        init_seed = arch["init_seed"]
        if init_seed is None:
            # Stable derivation so a config without an explicit seed still
            # reproduces byte-for-byte.
            init_seed = (self.master_seed * 2654435761 + 17) % (2**31)
        try:
            return EstimatorConfig(
                input_dim=input_dim,
                n_heads=self.horizon.n_heads,
                backbone_layers=tuple(arch["backbone_layers"]),
                head_layers=tuple(arch["head_layers"]),
                activation=arch["activation"],
                init_seed=int(init_seed),
            )
        except ValueError as exc:
            raise ConfigError(f"estimator: {exc}") from exc


def _parse_env(section: dict) -> tuple[dict, int]:
    if not isinstance(section, dict):
        raise ConfigError("env: must be an object")
    kind = _require(section, "kind", "env")
    if kind == "chain":
        allowed = {"kind", "n_states", "hazard", "transition", "start_distribution",
                   "max_steps", "stack_frames"}
        _check_keys(section, allowed, "env")
        stack = _value(int, section.get("stack_frames", 1), "env.stack_frames")
        fields = {
            "kind": "chain",
            "n_states": _value(int, _require(section, "n_states", "env"), "env.n_states"),
            "hazard": _value(_floats, _require(section, "hazard", "env"), "env.hazard"),
            "transition": _value(lambda rows: [_floats(row) for row in rows],
                                 _require(section, "transition", "env"), "env.transition"),
            "start_distribution": _value(_floats, _require(section, "start_distribution", "env"),
                                         "env.start_distribution"),
            "max_steps": _value(int, section.get("max_steps", 100), "env.max_steps"),
        }
        try:
            ChainWorldSpec(
                n_states=fields["n_states"],
                hazard=tuple(fields["hazard"]),
                transition=tuple(tuple(r) for r in fields["transition"]),
                start_distribution=tuple(fields["start_distribution"]),
            )
        except ValueError as exc:
            raise ConfigError(f"env: {exc}") from exc
        return fields, stack
    if kind == "corridor":
        defaults = CorridorWorldSpec()
        allowed = set(defaults.fields()) | {"stack_frames"}
        _check_keys(section, allowed, "env")
        stack = _value(int, section.get("stack_frames", 3), "env.stack_frames")
        fields = dict(defaults.fields())
        for key in fields:
            if key == "kind":
                continue
            if key in section:
                fields[key] = _value(type(fields[key]), section[key], f"env.{key}")
        try:
            spec_fields = dict(fields)
            spec_fields.pop("kind")
            CorridorWorldSpec(**spec_fields)
        except ValueError as exc:
            raise ConfigError(f"env: {exc}") from exc
        return fields, stack
    raise ConfigError(f"env.kind: unknown environment {kind!r}")


def load_config(
    path: str | Path,
    paper_parity: bool = False,
    seed_override: int | None = None,
) -> RunConfig:
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
    if version != CONFIG_VERSION:
        raise ConfigError(f"config.version: expected {CONFIG_VERSION}, got {version!r}")
    master_seed = _value(int, _require(raw, "master_seed", "config"), "config.master_seed")
    if seed_override is not None:
        master_seed = int(seed_override)

    env_fields, stack = _parse_env(_require(raw, "env", "config"))

    gen_count = None
    if "gen" in raw:
        _check_keys(raw["gen"], {"count"}, "gen")
        gen_count = _value(int, _require(raw["gen"], "count", "gen"), "gen.count")
        if gen_count < 1:
            raise ConfigError("gen.count: must be >= 1")

    horizon_raw = _require(raw, "horizon", "config")
    _check_keys(horizon_raw, {"delta_t", "n_heads", "lambda", "trunc_n"}, "horizon")
    horizon_raw = {**horizon_raw, **(PARITY_HORIZON if paper_parity else {})}
    h = {
        key: _value(convert, _require(horizon_raw, key, "horizon"), f"horizon.{key}")
        for key, convert in (("delta_t", float), ("n_heads", int), ("lambda", float),
                             ("trunc_n", int))
    }
    try:
        horizon = HorizonConfig(delta_t=h["delta_t"], n_heads=h["n_heads"], lam=h["lambda"],
                                trunc_n=h["trunc_n"])
    except ValueError as exc:
        raise ConfigError(f"horizon: {exc}") from exc

    loss_raw = raw.get("loss", {})
    _check_keys(loss_raw, {"c_interval", "c_chain", "p_collision", "p_noncollision"}, "loss")
    loss_raw = {**loss_raw, **(PARITY_LOSS if paper_parity else {})}
    try:
        loss = LossWeights(**loss_raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"loss: {exc}") from exc

    est_raw = raw.get("estimator", {})
    _check_keys(est_raw, {"backbone_layers", "head_layers", "activation", "init_seed"}, "estimator")
    init_seed = est_raw.get("init_seed")
    arch = {
        "backbone_layers": _value(_ints, est_raw.get("backbone_layers", [64, 64]),
                                  "estimator.backbone_layers"),
        "head_layers": _value(_ints, est_raw.get("head_layers", [16, 1]), "estimator.head_layers"),
        "activation": est_raw.get("activation", "tanh"),
        "init_seed": None if init_seed is None else _value(int, init_seed, "estimator.init_seed"),
    }

    train_fields_parsed = None
    if "train" in raw or paper_parity:
        train_raw = raw.get("train", {})
        _check_keys(
            train_raw,
            {"epochs", "samples_per_epoch", "batch_size", "lr_start", "lr_end",
             "eval_fraction", "checkpoint_every"},
            "train",
        )
        train_raw = {**train_raw, **(PARITY_TRAIN if paper_parity else {})}
        for key in ("epochs", "samples_per_epoch"):
            if key not in train_raw:
                raise ConfigError(f"train.{key}: required key is missing")
        # (type, default); the first two keys were checked present above.
        train_types = {"epochs": (int, None), "samples_per_epoch": (int, None),
                       "batch_size": (int, 8), "lr_start": (float, 1e-5),
                       "lr_end": (float, 1e-6), "eval_fraction": (float, 0.2),
                       "checkpoint_every": (int, 0)}
        train_fields_parsed = {
            key: _value(convert, train_raw.get(key, default), f"train.{key}")
            for key, (convert, default) in train_types.items()
        }

    thresholds = None
    intervals = None
    if "eval" in raw:
        _check_keys(raw["eval"], {"thresholds", "intervals"}, "eval")
        if "thresholds" in raw["eval"]:
            thresholds = tuple(_value(_floats, raw["eval"]["thresholds"], "eval.thresholds"))
        if "intervals" in raw["eval"]:
            intervals = _value(lambda pairs: tuple((float(lo), float(hi)) for lo, hi in pairs),
                               raw["eval"]["intervals"], "eval.intervals")

    return RunConfig(
        master_seed=master_seed,
        env_fields=env_fields,
        stack_frames=stack,
        gen_count=gen_count,
        horizon=horizon,
        loss=loss,
        estimator_arch=arch,
        train_fields=train_fields_parsed,
        thresholds=thresholds,
        intervals=intervals,
    )
