"""Training loop: stratified replay, bootstrap snapshots, Adam, metric log.

Each epoch starts from one snapshot of the current estimator's outputs on
every training state; each batch builds the targets of its sampled rows from
that snapshot (semi-gradient: no gradient flows through targets, and there
is no separate target network). The learning rate decays exponentially from
lr_start to lr_end over the configured epochs; held-out episodes are split
off before training and evaluated after every epoch. The run's state is one
`Checkpoint` record, which training advances epoch by epoch, so resuming
from a saved one continues the run exactly.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .artifacts import write_table
from .episodes import Episode
from .evaluation import evaluate
from .network import (
    AdamState,
    Checkpoint,
    EpochMetrics,
    EstimatorConfig,
    LossWeights,
    MultiHeadEstimator,
    batch_loss_and_grad,
    optimizer_step,
)
from .replay import build_index, sample
from .returns import HorizonConfig, lambda_targets

log = logging.getLogger(__name__)


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


class TrainResult(NamedTuple):
    """The run state `train` advanced, and the episodes it held out."""

    state: Checkpoint
    held_out: list[int]

    @property
    def metrics(self) -> list[EpochMetrics]:
        return self.state.metrics


def _split(n: int, fraction: float, rng: np.random.Generator) -> tuple[list[int], list[int]]:
    perm = rng.permutation(n)
    n_eval = min(max(int(round(fraction * n)), 1), n - 1)
    return sorted(int(j) for j in perm[n_eval:]), sorted(int(j) for j in perm[:n_eval])


def train(
    episodes: Sequence[Episode],
    cfg: TrainConfig,
    estimator_cfg: EstimatorConfig | None = None,
    resume: Checkpoint | None = None,
    on_epoch_end: Callable[[Checkpoint], None] | None = None,
) -> TrainResult:
    """Train an estimator on an episode corpus.

    Bootstrapped targets are rebuilt from an estimator snapshot at the start
    of every epoch and held constant across its batches (semi-gradient
    updates against a periodically refreshed snapshot).

    With `resume`, training continues that state in place: its estimator,
    optimizer state, epoch counter, replay sampler and metric history.
    Otherwise a fresh estimator is built from `estimator_cfg`, and one of the
    two is required. The state takes the horizon and loss weights of `cfg`,
    and is handed to `on_epoch_end` after every epoch. With no epochs left,
    the estimator is returned untouched.
    """

    episodes = list(episodes)
    if len(episodes) < 2:
        raise DegenerateCorpusError("need at least two episodes to split and train")
    n_collision = sum(ep.ends_in_collision for ep in episodes)
    if n_collision == 0 or n_collision == len(episodes):
        raise DegenerateCorpusError(
            "corpus must contain at least one collision and one non-collision episode"
        )
    obs_dim = episodes[0].obs_dim
    if any(ep.obs_dim != obs_dim for ep in episodes):
        raise DegenerateCorpusError("episodes disagree on observation dimension")

    seed_seq = np.random.SeedSequence(cfg.master_seed)
    # Spawn keys 0 and 2 seed the split and the sampler; key 1 is unused, and
    # renumbering would change the draws of every run.
    split_seq, _, sample_seq = seed_seq.spawn(3)

    state = resume
    if state is None:
        if estimator_cfg is None:
            raise ValueError("train needs an estimator_cfg or a checkpoint to resume")
        estimator = MultiHeadEstimator(estimator_cfg)
        state = Checkpoint(estimator, cfg.horizon, cfg.loss, AdamState.zeros(estimator))
    estimator, adam = state.estimator, state.adam
    arch = estimator.config
    if (arch.input_dim, arch.n_heads) != (obs_dim, cfg.horizon.n_heads):
        raise ValueError(f"the estimator takes {arch.input_dim} inputs to {arch.n_heads} heads; "
                         f"the data has {obs_dim} and the horizon {cfg.horizon.n_heads}")
    state.horizon, state.loss_weights = cfg.horizon, cfg.loss

    train_ids, held_out = _split(len(episodes), cfg.eval_fraction, np.random.default_rng(split_seq))
    train_eps = [episodes[j] for j in train_ids]
    held_eps = [episodes[j] for j in held_out]
    # Per training episode: its rows in the packed epoch snapshot, and how
    # it ended.
    steps = np.array([ep.steps for ep in train_eps])
    last_rows = np.cumsum(steps) - 1
    first_rows = last_rows - steps + 1
    collided = np.array([ep.ends_in_collision for ep in train_eps])

    index = build_index(train_eps, cfg.horizon)
    # The final timestep of a truncated episode can anchor no valid target
    # under strict masking; sampling skips those, the index itself keeps them.
    owner = index.episode
    pool = index[collided[owner] | (index.timestep <= steps[owner] - 2)]
    if len(pool) == 0:
        raise DegenerateCorpusError("no timestep in the corpus can anchor a valid target")

    sample_rng = np.random.default_rng(sample_seq)
    if state.sampler is not None:
        sample_rng.bit_generator.state = state.sampler
    elif 0 < state.epochs_completed < cfg.epochs:
        log.warning("resuming from a state without replay sampler state or metric history "
                    "(a version 1 checkpoint): replay restarts from the configured seed, so "
                    "this run will differ from an uninterrupted one")
    for epoch in range(state.epochs_completed, cfg.epochs):
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
            optimizer_step(estimator, grads.flat, adam, lr)
            sums += np.array(
                [breakdown.total, breakdown.mse, breakdown.interval, breakdown.chain]
            ) * breakdown.n_valid
            n_valid_total += breakdown.n_valid
        report = evaluate(held_eps, estimator, cfg.horizon)
        state.metrics.append(EpochMetrics(epoch, lr, *(sums / n_valid_total),
                                          tuple(float(a) for a in report.acc), report.pes_mean))
        state.epochs_completed = epoch + 1
        state.sampler = sample_rng.bit_generator.state
        if on_epoch_end is not None:
            on_epoch_end(state)
    return TrainResult(state, held_out)


def write_metric_log(path: str | Path, metrics: list[EpochMetrics], n_heads: int) -> None:
    """Tab-delimited training log, one row per epoch, fixed float formats."""

    columns = ["epoch", "lr", "loss", "loss_mse", "loss_interval", "loss_chain"]
    columns += [f"acc_head{i}" for i in range(1, n_heads + 1)]
    columns += ["pes_mean"]
    if any(len(m.acc_per_head) != n_heads for m in metrics):
        raise ValueError("metric entry does not match n_heads")
    rows = [(m.epoch, m.lr, m.loss, m.loss_mse, m.loss_interval, m.loss_chain, *m.acc_per_head,
             m.pes_mean) for m in metrics]
    write_table(path, "train-metrics", columns, rows)
