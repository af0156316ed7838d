"""Training loop: stratified replay, bootstrap snapshots, Adam, metric log.

Each epoch starts from one snapshot of the current estimator's outputs on
every training state, and its targets are read from that snapshot alone
(semi-gradient: no gradient flows through targets, and there is no separate
target network). Replay never reads the estimator, so an epoch is drawn
before its snapshot is taken: one pass over groups of whole episodes then
fills the snapshot and copies the drawn rows into a table of the epoch's
anchors, so the training observations are never packed whole. The epoch is
planned before it is stepped: its targets are built and its features
gathered a block of batches at a time, and each step then runs on slices of
its block. The learning rate decays exponentially from
lr_start to lr_end over the configured epochs; held-out episodes are split
off before training and evaluated after every epoch. The run's state is one
`Checkpoint` record, which training advances epoch by epoch, so resuming
from a saved one continues the run exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .artifacts import write_table
from .episodes import Episode
from .evaluation import episode_groups, evaluate
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
from .returns import HorizonConfig, corpus_rows, lambda_targets

# An epoch is planned in blocks of whole batches holding at most PLAN_ROWS
# anchors (one batch when a batch is larger), which bounds the plan's memory
# whatever samples_per_epoch is. Both sizes are at most MAX_SAMPLES, so one
# batch's plan stays allocatable and an epoch's count of batches small.
PLAN_ROWS = 4096
MAX_SAMPLES = 1_000_000


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
        if not 1 <= self.samples_per_epoch <= MAX_SAMPLES:
            raise ValueError(f"samples_per_epoch must be >= 1 and at most {MAX_SAMPLES}")
        if not 1 <= self.batch_size <= MAX_SAMPLES:
            raise ValueError(f"batch_size must be >= 1 and at most {MAX_SAMPLES}")
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
    updates against a periodically refreshed snapshot). The epoch's batches
    are drawn before its snapshot and targeted before the steps that use
    them: the sampler never reads the estimator, so the batches, their
    targets and the sampler state are those of drawing each batch just
    before its step.
    Floating-point overflow, invalid operations and division by zero raise
    `FloatingPointError` from the operation that first hits one.

    With `resume`, training continues that state in place: its estimator,
    optimizer state, epoch counter, replay sampler and metric history; a
    state with completed epochs but no sampler state raises ValueError.
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
    if state is not None and state.epochs_completed and state.sampler is None:
        raise ValueError("a state with completed epochs needs its replay sampler state to resume")
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
    # The training episodes laid end to end, each one's states in consecutive
    # rows, are the row space of the replay index and of the snapshot.
    last_rows, collided = corpus_rows(train_eps)
    index = build_index(train_eps, cfg.horizon)
    if not len(index):
        raise DegenerateCorpusError("no training row can anchor a target: every training "
                                    "episode is a one-step truncation")

    sample_rng = np.random.default_rng(sample_seq)
    if state.sampler is not None:
        sample_rng.bit_generator.state = state.sampler
    for epoch in range(state.epochs_completed, cfg.epochs):
        lr = lr_schedule(epoch, cfg)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            losses = _epoch(estimator, adam, lr, train_eps, last_rows, collided, index,
                            sample_rng, cfg)
            report = evaluate(held_eps, estimator, cfg.horizon)
        state.metrics.append(EpochMetrics(epoch, lr, *losses, tuple(float(a) for a in report.acc),
                                          report.pes_mean))
        state.epochs_completed = epoch + 1
        state.sampler = sample_rng.bit_generator.state
        if on_epoch_end is not None:
            on_epoch_end(state)
    return TrainResult(state, held_out)


def _epoch(
    estimator: MultiHeadEstimator,
    adam: AdamState,
    lr: float,
    train_eps: list[Episode],
    last_rows: np.ndarray,
    collided: np.ndarray,
    index: np.recarray,
    rng: np.random.Generator,
    cfg: TrainConfig,
) -> np.ndarray:
    """Step one epoch; returns its loss, mse, interval and chain means over
    valid entries."""

    batch, total = cfg.batch_size, cfg.samples_per_epoch
    # The epoch's draws first, batch by batch with the calls of drawing each
    # batch just before its step: the sampler never reads the estimator.
    rows = np.empty(total, dtype=np.int64)
    related = np.empty(total, dtype=bool)
    for lo in range(0, total, batch):
        drawn = sample(index, min(batch, total - lo), rng, cfg.loss.p_collision,
                       cfg.loss.p_noncollision)
        rows[lo : lo + batch] = drawn.row
        related[lo : lo + batch] = drawn.collision_related
    needed = np.zeros(len(last_rows), dtype=bool)
    needed[rows] = True

    # One pass over groups of whole episodes forwards every training row into
    # the snapshot (a row's output does not depend on the rows forwarded with
    # it) and copies the drawn rows, in row order, into a table of the
    # epoch's distinct anchors. The episodes are never packed whole.
    steps = [ep.steps for ep in train_eps]
    starts = np.cumsum([0, *steps])
    snapshot = np.empty((len(last_rows), cfg.horizon.n_heads))
    table = np.empty((np.count_nonzero(needed), train_eps[0].obs_dim))
    filled = 0
    for group in episode_groups(steps):
        lo, hi = starts[group.start], starts[group.stop]
        x = np.concatenate([ep.observations for ep in train_eps[group]])
        snapshot[lo:hi] = estimator.forward(x)
        picked = needed[lo:hi]
        n_picked = np.count_nonzero(picked)
        table[filled : filled + n_picked] = x[picked]
        filled += n_picked
        del x  # before the next group is gathered
    np.clip(snapshot, 0.0, 1.0, out=snapshot)
    slots = np.cumsum(needed)[rows] - 1  # each draw's row of the table
    del needed

    block_rows = max(PLAN_ROWS // batch, 1) * batch
    sums = np.zeros(4)  # loss, mse, interval, chain, weighted by n_valid
    n_valid_total = 0
    for first in range(0, total, block_rows):
        # A block of whole batches; the epoch's last batch may be short.
        block = slice(first, min(first + block_rows, total))
        anchors = rows[block]
        # Targets are row-wise, so the block's rows get the bits each batch
        # would get on its own.
        targets = lambda_targets(snapshot, anchors, last_rows[anchors], collided[anchors],
                                 cfg.horizon)
        if block.stop == total:
            # Freed before the last block's steps, the held-out forward and
            # the next snapshot.
            del snapshot
        features, flags = table[slots[block]], related[block]
        for lo in range(0, len(anchors), batch):
            hi = lo + batch
            _, breakdown, grads = batch_loss_and_grad(
                estimator, features[lo:hi], targets.values[lo:hi], targets.valid[lo:hi],
                flags[lo:hi], cfg.loss,
            )
            optimizer_step(estimator, grads.flat, adam, lr)
            sums += np.array(
                [breakdown.total, breakdown.mse, breakdown.interval, breakdown.chain]
            ) * breakdown.n_valid
            n_valid_total += breakdown.n_valid
        # Freed before the next block is planned.
        del targets, features
    return sums / n_valid_total


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
