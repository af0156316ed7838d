"""Command line: gen, train, eval, oracle.

Exit codes: 0 success, 1 usage, 2 data, schema or file-system problems,
3 numerical failures. RISKHORIZON_LOG=debug|info|warning|error controls diagnostic
verbosity on stderr; result summaries always print to stdout.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, RunConfig, load_config
from .envs import ChainWorld, chain_observation, generate_episodes, world_fingerprint
from .episodes import SchemaError, load_episodes, save_episodes
from .evaluation import (
    DEFAULT_INTERVALS,
    DEFAULT_THRESHOLDS,
    collision_characteristic,
    detection_rate,
    evaluate,
    oracle_errors,
    write_characteristic,
    write_detection,
    write_head_metrics,
    write_oracle_errors,
    write_summary,
)
from .network import (
    CheckpointError,
    NonFiniteUpdateError,
    load_checkpoint,
    save_checkpoint,
)
from .oracle import (
    InstanceTooLargeError,
    brute_force_cumulative,
    dp_cumulative,
    write_oracle_table,
)
from .training import DegenerateCorpusError, train, write_metric_log

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

CROSS_CHECK_TOLERANCE = 1e-9

log = logging.getLogger("riskhorizon")


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the contract here is 1.
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="riskhorizon", description=__doc__)
    parser.add_argument("--version", action="version", version=f"riskhorizon {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    gen = sub.add_parser("gen", help="roll episodes and write them to a file")
    gen.add_argument("--config", required=True, help="run configuration (JSON)")
    gen.add_argument("--out", required=True, help="episode file to write")
    gen.add_argument("--seed", type=int, default=None, help="override the config master seed")
    gen.add_argument("--episodes", type=int, default=None, help="override gen.count")

    tr = sub.add_parser("train", help="train an estimator on an episode file")
    tr.add_argument("--config", required=True, help="run configuration (JSON)")
    tr.add_argument("--episodes", required=True, help="episode file to train on")
    tr.add_argument("--out", required=True, help="output directory (checkpoint + metric log)")
    tr.add_argument("--checkpoint", default=None, help="resume from this checkpoint")
    tr.add_argument("--seed", type=int, default=None, help="override the config master seed")

    ev = sub.add_parser("eval", help="evaluate a checkpoint on an episode file")
    ev.add_argument("--checkpoint", required=True, help="trained checkpoint")
    ev.add_argument("--episodes", required=True, help="episode file to evaluate on")
    ev.add_argument("--out", required=True, help="output directory for report tables")
    ev.add_argument("--config", default=None,
                    help="optional run configuration (thresholds, chain-world oracle comparison)")

    orc = sub.add_parser("oracle", help="write exact chain-world probabilities")
    orc.add_argument("--config", required=True, help="run configuration with a chain env")
    orc.add_argument("--out", required=True, help="table file to write")
    orc.add_argument("--cross-check", action="store_true",
                     help="re-derive the table by brute force and compare")
    orc.add_argument("--seed", type=int, default=None, help="override the config master seed")
    return parser


def cmd_gen(args) -> int:
    cfg = load_config(args.config, seed_override=args.seed)
    count = args.episodes if args.episodes is not None else cfg.gen_count
    if count is None:
        raise ConfigError("gen.count: required (or pass --episodes)")
    if count < 1:
        raise ConfigError("episode count must be >= 1")
    episodes, summary = generate_episodes(cfg.world, count, cfg.master_seed)
    save_episodes(args.out, episodes, world_fingerprint(cfg.world))
    lengths = sorted(summary.length_histogram)
    print(
        f"wrote {summary.episodes} episodes to {args.out} "
        f"({summary.collisions} collisions, fraction {summary.collision_fraction:.3f}, "
        f"steps {lengths[0]}..{lengths[-1]})"
    )
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = load_config(args.config, seed_override=args.seed)
    train_cfg = cfg.train
    if train_cfg is None:
        raise ConfigError("train: section is required for training")
    episodes, header = load_episodes(args.episodes)
    if header["obs_dim"] != cfg.world.obs_dim:
        raise SchemaError(
            f"{args.episodes}: obs_dim {header['obs_dim']} does not match the "
            f"configured environment ({cfg.world.obs_dim})"
        )
    if header["spec_hash"] != world_fingerprint(cfg.world):
        log.warning("episode file was generated from a different environment spec")
    resume = load_checkpoint(args.checkpoint) if args.checkpoint else None
    start = resume.epochs_completed if resume else 0

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    def periodic(state):
        done, entry = state.epochs_completed, state.metrics[-1]
        if train_cfg.checkpoint_every > 0 and done % train_cfg.checkpoint_every == 0:
            save_checkpoint(out_dir / f"checkpoint_epoch{done:04d}.json", state)
        log.info("epoch %d: lr %.3g loss %.6g", entry.epoch, entry.lr, entry.loss)

    state = train(episodes, train_cfg, estimator_cfg=cfg.estimator, resume=resume,
                  on_epoch_end=periodic).state
    ckpt_path = out_dir / "checkpoint.json"
    save_checkpoint(ckpt_path, state)
    metrics_path = out_dir / "metrics.tsv"
    write_metric_log(metrics_path, state.metrics, cfg.horizon.n_heads)
    ran = state.epochs_completed - start
    if ran == 0:
        print(f"no epochs to run; checkpoint written to {ckpt_path}")
    else:
        last = state.metrics[-1]
        print(
            f"trained {ran} epochs ({state.epochs_completed} total); "
            f"final loss {last.loss:.6g}, held-out pes_mean {last.pes_mean:.4g}; "
            f"checkpoint {ckpt_path}, metrics {metrics_path}"
        )
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg: RunConfig | None = load_config(args.config) if args.config else None
    ckpt = load_checkpoint(args.checkpoint)
    episodes, header = load_episodes(args.episodes)
    if header["obs_dim"] != ckpt.estimator.config.input_dim:
        raise SchemaError(
            f"{args.episodes}: obs_dim {header['obs_dim']} does not match the "
            f"checkpoint ({ckpt.estimator.config.input_dim})"
        )
    thresholds = cfg.thresholds if cfg else DEFAULT_THRESHOLDS
    intervals = cfg.intervals if cfg else DEFAULT_INTERVALS

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = evaluate(episodes, ckpt.estimator, ckpt.horizon)
    curves = collision_characteristic(episodes, ckpt.estimator, ckpt.horizon)
    detection = detection_rate(episodes, ckpt.estimator, ckpt.horizon, thresholds, intervals)
    write_head_metrics(out_dir / "head_metrics.tsv", report)
    write_characteristic(out_dir / "collision_characteristic.tsv", curves)
    write_detection(out_dir / "detection_rate.tsv", detection)

    summary = {
        "episodes": len(episodes),
        "collision_episodes": detection.episode_count,
        "n_heads": ckpt.horizon.n_heads,
        "delta_t": ckpt.horizon.delta_t,
        "acc_mean": report.acc_mean,
        "pes_mean": report.pes_mean,
        "acc_per_head": [None if c == 0 else float(a) for a, c in zip(report.acc, report.counts)],
        "pes_per_head": [None if c == 0 else float(p) for p, c in zip(report.pes, report.counts)],
        "windows_per_head": [int(c) for c in report.counts],
        "characteristic_episodes": int(curves.per_episode.shape[0]),
        "tables": [
            "head_metrics.tsv",
            "collision_characteristic.tsv",
            "detection_rate.tsv",
        ],
    }
    if cfg is not None and isinstance(cfg.world, ChainWorld):
        spec = cfg.world.spec
        table = dp_cumulative(spec, ckpt.horizon.n_heads)
        obs = np.stack(
            [chain_observation(spec, s, cfg.world.stack_frames) for s in range(spec.n_states)]
        )
        errors = oracle_errors(ckpt.estimator, table, obs)
        write_oracle_errors(out_dir / "oracle_errors.tsv", errors)
        summary["oracle_max_abs_error"] = float(errors.max())
        summary["tables"].append("oracle_errors.tsv")
    write_summary(out_dir / "summary.json", summary)
    print(
        f"evaluated {len(episodes)} episodes ({detection.episode_count} collisions): "
        f"acc_mean {report.acc_mean:.6g}, pes_mean {report.pes_mean:.4g}; tables in {out_dir}"
    )
    return EXIT_OK


def cmd_oracle(args) -> int:
    cfg = load_config(args.config, seed_override=args.seed)
    if not isinstance(cfg.world, ChainWorld):
        raise ConfigError("this command needs a chain environment")
    spec = cfg.world.spec
    table = dp_cumulative(spec, cfg.horizon.n_heads)
    write_oracle_table(args.out, table)
    print(
        f"wrote oracle table for {spec.n_states} states x {cfg.horizon.n_heads} heads to {args.out}"
    )
    if args.cross_check:
        brute = brute_force_cumulative(spec, cfg.horizon.n_heads)
        deviation = float(np.abs(table.probabilities - brute.probabilities).max())
        print(f"cross-check max deviation: {deviation:.3g}")
        if deviation > CROSS_CHECK_TOLERANCE:
            print("cross-check FAILED: dynamic program disagrees with enumeration",
                  file=sys.stderr)
            return EXIT_NUMERIC
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("RISKHORIZON_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    commands = {"gen": cmd_gen, "train": cmd_train, "eval": cmd_eval, "oracle": cmd_oracle}
    try:
        return commands[args.command](args)
    except (ConfigError, SchemaError, CheckpointError, DegenerateCorpusError,
            InstanceTooLargeError, OSError) as exc:
        # OSError: a path that is missing, a directory, or not readable or writable.
        print(f"riskhorizon {args.command}: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NonFiniteUpdateError, FloatingPointError) as exc:
        print(f"riskhorizon {args.command}: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def entrypoint() -> None:
    raise SystemExit(main())
