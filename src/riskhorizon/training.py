"""Training loop: stratified replay, bootstrap snapshots, Adam, metric log.

Each epoch starts from one snapshot of the current estimator's outputs on
every training state; each batch builds the targets of its sampled rows from
that snapshot (semi-gradient: no gradient flows through targets, and there
is no separate target network). The learning rate decays exponentially from
lr_start to lr_end over the configured epochs; held-out episodes are split
off before training and evaluated after every epoch.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .episodes import Episode, Terminal
from .evaluation import EvalReport, evaluate
from .network import (
    AdamState,
    Checkpoint,
    EstimatorConfig,
    LossWeights,
    MultiHeadEstimator,
    batch_loss_and_grad,
    optimizer_step,
)
from .replay import build_index, sample
from .returns import HorizonConfig, lambda_targets

METRICS_HEADER = "# riskhorizon-train-metrics v1"


class DegenerateCorpusError(ValueError):
    """The episode corpus cannot support training."""


@dataclass(frozen=True)
class TrainConfig:
    horizon: HorizonConfig
    loss: LossWeights
    epochs: int
    samples_per_epoch: int
    batch_size: int = 8
    lr_start: float = 1e-5
    lr_end: float = 1e-6
    eval_fraction: float = 0.2
    master_seed: int = 0
    checkpoint_every: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.samples_per_epoch < 1:
            raise ValueError("samples_per_epoch must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not (0 < self.lr_end <= self.lr_start):
            raise ValueError("need 0 < lr_end <= lr_start")
        if not 0.0 < self.eval_fraction < 1.0:
            raise ValueError("eval_fraction must lie in (0, 1)")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")


def lr_schedule(epoch: int, cfg: TrainConfig) -> float:
    """Exponential interpolation from lr_start to lr_end across all epochs."""

    if not 0 <= epoch < max(cfg.epochs, 1):
        raise ValueError(f"epoch {epoch} outside the configured range")
    if cfg.epochs <= 1:
        return cfg.lr_start
    frac = epoch / (cfg.epochs - 1)
    return cfg.lr_start * (cfg.lr_end / cfg.lr_start) ** frac


@dataclass
class EpochMetrics:
    epoch: int
    lr: float
    loss: float
    loss_mse: float
    loss_interval: float
    loss_chain: float
    acc_per_head: tuple[float, ...]
    pes_mean: float


@dataclass
class TrainResult:
    estimator: MultiHeadEstimator
    adam: AdamState
    metrics: list[EpochMetrics]
    held_out: list[int]
    epochs_completed: int


def _split(n: int, fraction: float, rng: np.random.Generator) -> tuple[list[int], list[int]]:
    perm = rng.permutation(n)
    n_eval = min(max(int(round(fraction * n)), 1), n - 1)
    return sorted(int(j) for j in perm[n_eval:]), sorted(int(j) for j in perm[:n_eval])


def train(
    episodes: Sequence[Episode],
    cfg: TrainConfig,
    estimator_cfg: EstimatorConfig | None = None,
    resume: Checkpoint | None = None,
    on_epoch_end: Callable[[int, MultiHeadEstimator, AdamState, EpochMetrics], None] | None = None,
) -> TrainResult:
    """Train an estimator on an episode corpus.

    Bootstrapped targets are rebuilt from an estimator snapshot at the start
    of every epoch and held constant across its batches (semi-gradient
    updates against a periodically refreshed snapshot).

    With `resume`, training continues from the checkpoint's estimator,
    optimizer state, and epoch counter; otherwise a fresh estimator is built
    (from `estimator_cfg`, or defaults sized to the data). Zero configured
    epochs returns the estimator untouched.
    """

    episodes = list(episodes)
    if len(episodes) < 2:
        raise DegenerateCorpusError("need at least two episodes to split and train")
    n_collision = sum(1 for ep in episodes if ep.terminal is Terminal.COLLISION)
    if n_collision == 0 or n_collision == len(episodes):
        raise DegenerateCorpusError(
            "corpus must contain at least one collision and one non-collision episode"
        )
    obs_dim = episodes[0].obs_dim
    if any(ep.obs_dim != obs_dim for ep in episodes):
        raise DegenerateCorpusError("episodes disagree on observation dimension")

    seed_seq = np.random.SeedSequence(cfg.master_seed)
    split_seq, init_seq, sample_seq = seed_seq.spawn(3)

    if resume is not None:
        estimator = resume.estimator
        adam = resume.adam if resume.adam is not None else AdamState.zeros(estimator)
        start_epoch = resume.epochs_completed
        if estimator.config.input_dim != obs_dim:
            raise ValueError(
                f"checkpoint expects input_dim {estimator.config.input_dim}, data has {obs_dim}"
            )
        if estimator.config.n_heads != cfg.horizon.n_heads:
            raise ValueError("checkpoint and configuration disagree on n_heads")
    else:
        if estimator_cfg is None:
            estimator_cfg = EstimatorConfig(
                input_dim=obs_dim,
                n_heads=cfg.horizon.n_heads,
                init_seed=int(init_seq.generate_state(1)[0]),
            )
        if estimator_cfg.input_dim != obs_dim:
            raise ValueError(
                f"estimator config expects input_dim {estimator_cfg.input_dim}, data has {obs_dim}"
            )
        if estimator_cfg.n_heads != cfg.horizon.n_heads:
            raise ValueError("estimator config and horizon disagree on n_heads")
        estimator = MultiHeadEstimator(estimator_cfg)
        adam = AdamState.zeros(estimator)
        start_epoch = 0

    train_ids, held_out = _split(len(episodes), cfg.eval_fraction, np.random.default_rng(split_seq))
    train_eps = [episodes[j] for j in train_ids]
    held_eps = [episodes[j] for j in held_out]
    # Per training episode: its rows in the packed epoch snapshot, and how
    # it ended.
    steps = np.array([ep.steps for ep in train_eps])
    last_rows = np.cumsum(steps) - 1
    first_rows = last_rows - steps + 1
    collided = np.array([ep.terminal is Terminal.COLLISION for ep in train_eps])

    index = build_index(train_eps, cfg.horizon)
    # The final timestep of a truncated episode can anchor no valid target
    # under strict masking; sampling skips those, the index itself keeps them.
    owner = index.episode
    pool = index[collided[owner] | (index.timestep <= steps[owner] - 2)]
    if len(pool) == 0:
        raise DegenerateCorpusError("no timestep in the corpus can anchor a valid target")

    sample_rng = np.random.default_rng(sample_seq)
    metrics: list[EpochMetrics] = []
    epoch = start_epoch
    for epoch in range(start_epoch, cfg.epochs):
        lr = lr_schedule(epoch, cfg)
        # One forward per episode, as its rounding depends on the row count.
        snapshot = np.concatenate([estimator.forward(ep.observations) for ep in train_eps])
        np.clip(snapshot, 0.0, 1.0, out=snapshot)
        drawn = 0
        sums = np.zeros(4)  # loss, mse, interval, chain, weighted by n_valid
        n_valid_total = 0
        while drawn < cfg.samples_per_epoch:
            size = min(cfg.batch_size, cfg.samples_per_epoch - drawn)
            batch = sample(pool, size, sample_rng, cfg.loss.p_collision, cfg.loss.p_noncollision)
            drawn += size
            ep_ids, timesteps = batch.episode, batch.timestep
            rows = first_rows[ep_ids] + timesteps
            targets = lambda_targets(
                snapshot, rows, last_rows[ep_ids], collided[ep_ids], cfg.horizon
            )
            features = np.stack([train_eps[e].observations[t] for e, t in
                                 zip(ep_ids.tolist(), timesteps.tolist())])
            _, breakdown, grads = batch_loss_and_grad(
                estimator, features, targets.values, targets.valid, batch.collision_related,
                cfg.loss,
            )
            optimizer_step(estimator, grads, adam, lr)
            sums += np.array(
                [breakdown.total, breakdown.mse, breakdown.interval, breakdown.chain]
            ) * breakdown.n_valid
            n_valid_total += breakdown.n_valid
        report: EvalReport = evaluate(held_eps, estimator, cfg.horizon)
        entry = EpochMetrics(
            epoch=epoch,
            lr=lr,
            loss=sums[0] / n_valid_total,
            loss_mse=sums[1] / n_valid_total,
            loss_interval=sums[2] / n_valid_total,
            loss_chain=sums[3] / n_valid_total,
            acc_per_head=tuple(float(a) for a in report.acc),
            pes_mean=report.pes_mean,
        )
        metrics.append(entry)
        if on_epoch_end is not None:
            on_epoch_end(epoch, estimator, adam, entry)
    epochs_completed = cfg.epochs if cfg.epochs > start_epoch else start_epoch
    return TrainResult(
        estimator=estimator,
        adam=adam,
        metrics=metrics,
        held_out=held_out,
        epochs_completed=epochs_completed,
    )


def write_metric_log(path: str | Path, metrics: list[EpochMetrics], n_heads: int) -> None:
    """Tab-delimited training log, one row per epoch, fixed float formats."""

    columns = ["epoch", "lr", "loss", "loss_mse", "loss_interval", "loss_chain"]
    columns += [f"acc_head{i}" for i in range(1, n_heads + 1)]
    columns += ["pes_mean"]
    lines = [METRICS_HEADER, "\t".join(columns)]
    for m in metrics:
        if len(m.acc_per_head) != n_heads:
            raise ValueError("metric entry does not match n_heads")
        row = [str(m.epoch), "%.12g" % m.lr, "%.12g" % m.loss, "%.12g" % m.loss_mse,
               "%.12g" % m.loss_interval, "%.12g" % m.loss_chain]
        row += ["%.12g" % a for a in m.acc_per_head]
        row += ["%.12g" % m.pes_mean]
        lines.append("\t".join(row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
