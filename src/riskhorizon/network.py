"""Multi-head cumulative-probability estimator with analytic gradients.

A shared fully connected backbone (residual blocks after the first
projection layer) feeds a latent vector to a stack of small per-head
sub-networks. Head i additionally receives the scalar output of head i-1
(head 1 receives a constant 0), so the map from horizon step to probability
is built left to right and gradients flow back through the chain.

Outputs are raw, unsquashed reals: probability range is enforced by an
interval penalty in the loss, not by an output nonlinearity. Everything is
float64 numpy; backpropagation is written out by hand so the gradient path
is fully owned and can be checked against finite differences.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import asdict, dataclass, field, replace
from itertools import accumulate
from pathlib import Path
from typing import Sequence

import numpy as np

from .artifacts import write_json
from .returns import HorizonConfig

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

CHECKPOINT_FORMAT = "riskhorizon-checkpoint"
CHECKPOINT_VERSION = 2
CHECKPOINT_KEYS = {"format", "version", "estimator", "horizon", "loss", "epochs_completed",
                   "params", "adam", "sampler", "metrics"}
# Version 1 files have no sampler state or metric history, and list the
# parameter layout.
V1_CHECKPOINT_KEYS = CHECKPOINT_KEYS - {"sampler", "metrics"} | {"layout"}


class EmptyBatchError(ValueError):
    """A loss was requested over zero usable (sample, head) entries."""


class NonFiniteUpdateError(FloatingPointError):
    """A gradient or update contained NaN or infinity; the step was aborted."""


class CheckpointError(ValueError):
    """A checkpoint file is malformed or from an unsupported version."""


@dataclass(frozen=True)
class EstimatorConfig:
    input_dim: int
    n_heads: int
    backbone_layers: tuple[int, ...] = (64, 64)
    head_layers: tuple[int, ...] = (16, 1)
    activation: str = "tanh"
    init_seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "backbone_layers", tuple(self.backbone_layers))
        object.__setattr__(self, "head_layers", tuple(self.head_layers))
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if self.n_heads < 1:
            raise ValueError("need at least one head")
        if not self.backbone_layers or any(w < 1 for w in self.backbone_layers):
            raise ValueError("backbone_layers must be nonempty positive widths")
        if len(self.head_layers) < 1 or self.head_layers[-1] != 1:
            raise ValueError("head_layers must end in a single scalar output")
        if any(w < 1 for w in self.head_layers):
            raise ValueError("head_layers must be positive widths")
        if self.activation not in ("relu", "tanh"):
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.init_seed < 0:
            raise ValueError("init_seed must be >= 0")


@dataclass(frozen=True)
class LossWeights:
    """Loss coefficients and the stratified-sampling probabilities.

    Accepted collision-window samples are importance-weighted in the squared
    error by p_noncollision / p_collision, undoing the acceptance bias.
    """

    c_interval: float = 1.0
    c_chain: float = 1.0
    p_collision: float = 0.25
    p_noncollision: float = 0.025

    def __post_init__(self) -> None:
        if self.c_interval < 0 or self.c_chain < 0:
            raise ValueError("loss coefficients must be >= 0")
        for name in ("p_collision", "p_noncollision"):
            p = getattr(self, name)
            if not 0.0 < p <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1]")
        if self.p_noncollision > self.p_collision:
            raise ValueError("p_noncollision must not exceed p_collision")

    @property
    def collision_mse_factor(self) -> float:
        return self.p_noncollision / self.p_collision


def _dense_layers(cfg: EstimatorConfig) -> list[tuple[str, int, int]]:
    """(name, out_dim, in_dim) of every dense layer, in storage order."""

    widths = [cfg.input_dim, *cfg.backbone_layers]
    head_widths = [cfg.backbone_layers[-1] + 1, *cfg.head_layers]
    layers = [(f"backbone{l}", widths[l + 1], widths[l]) for l in range(len(widths) - 1)]
    return layers + [(f"head{i}.l{l}", head_widths[l + 1], head_widths[l])
                     for i in range(cfg.n_heads) for l in range(len(head_widths) - 1)]


def param_layout(cfg: EstimatorConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Name and shape of every parameter array, in the order they tile the flat vector."""

    return [(f"{name}.{part}", shape) for name, out_dim, in_dim in _dense_layers(cfg)
            for part, shape in (("w", (out_dim, in_dim)), ("b", (out_dim,)))]


def _act(z: np.ndarray, kind: str) -> np.ndarray:
    """The activation of z, written over z."""

    if kind == "relu":
        return np.maximum(z, 0.0, out=z)
    return np.tanh(z, out=z)


def _act_grad(a: np.ndarray, kind: str) -> np.ndarray:
    """The activation's derivative, from its output a (a > 0 exactly where z > 0)."""

    if kind == "relu":
        return (a > 0.0).astype(np.float64)
    return 1.0 - a * a


class FlatArrays(dict):
    """Named arrays that are views into one float64 vector, `flat`.

    The names follow the layout order, and the views tile `flat` in that
    order, so whole-vector arithmetic on `flat` and per-name writes through
    the views see the same numbers.
    """

    def __init__(self, flat: np.ndarray, layout: Sequence[tuple[str, tuple[int, ...]]]):
        super().__init__()
        self.flat = flat
        off = 0
        for name, shape in layout:
            size = math.prod(shape)
            self[name] = flat[off : off + size].reshape(shape)
            off += size
        if flat.shape != (off,):
            raise ValueError(f"layout covers {off} values, the vector holds {flat.shape}")


class MultiHeadEstimator:
    """Residual MLP backbone plus chained per-head sub-networks."""

    def __init__(self, config: EstimatorConfig):
        self.config = config
        rng = np.random.default_rng(config.init_seed)
        init = []
        for _, out_dim, in_dim in _dense_layers(config):
            bound = 1.0 / np.sqrt(in_dim)
            init.append(rng.uniform(-bound, bound, size=(out_dim, in_dim)).ravel())
            init.append(rng.uniform(-bound, bound, size=out_dim))
        self.params = FlatArrays(np.concatenate(init), param_layout(config))
        # (weight, bias) parameter names per layer, in evaluation order.
        keys = [(f"{name}.w", f"{name}.b") for name, _, _ in _dense_layers(config)]
        n_backbone, per_head = len(config.backbone_layers), len(config.head_layers)
        self._backbone_keys = keys[:n_backbone]
        self._head_keys = [keys[k : k + per_head] for k in range(n_backbone, len(keys), per_head)]
        # Gradient buffer in the same layout, made by the first backward pass
        # and reused by every later one.
        self._grads: FlatArrays | None = None

    # A backbone layer is residual when it preserves width; the first layer
    # projects the input and never is.
    def _residual(self, l: int) -> bool:
        widths = [self.config.input_dim, *self.config.backbone_layers]
        return l > 0 and widths[l] == widths[l + 1]

    def forward(self, features: np.ndarray) -> np.ndarray:
        """Raw head outputs; [n_heads] for a vector, [B, n_heads] for a batch."""

        x = np.asarray(features, dtype=np.float64)
        single = x.ndim == 1
        preds, _ = self._forward_cached(np.atleast_2d(x), want_cache=False)
        return preds[0] if single else preds

    def _forward_cached(self, x: np.ndarray, want_cache: bool = True):
        """Raw head outputs [B, n_heads], and the cache `_backward` needs.

        Every head reads one [B, latent + 1] input buffer: the latent
        columns are filled once, and the last column is overwritten with
        the previous head's output before each head runs. The buffer and
        every temporary belong to this call alone.
        """

        cfg = self.config
        if x.ndim != 2 or x.shape[1] != cfg.input_dim:
            raise ValueError(f"features must be [B, {cfg.input_dim}], got {x.shape}")
        act = cfg.activation
        params = self.params
        h = x
        bb = []
        for l, (wk, bk) in enumerate(self._backbone_keys):
            z = h @ params[wk].T
            z += params[bk]
            a = _act(z, act)
            bb.append((h, a))
            h = a + h if self._residual(l) else a

        n = x.shape[0]
        latent_dim = cfg.backbone_layers[-1]
        u = np.empty((n, latent_dim + 1))
        u[:, :latent_dim] = h
        u[:, latent_dim] = 0.0
        preds = np.empty((n, cfg.n_heads))
        hidden = []
        last = len(cfg.head_layers) - 1
        for i, layers in enumerate(self._head_keys):
            cur = u
            acts = []
            for l, (wk, bk) in enumerate(layers):
                cur = cur @ params[wk].T
                cur += params[bk]
                if l < last:  # the scalar output layer stays linear
                    acts.append(_act(cur, act))
            hidden.append(acts)
            preds[:, i] = cur[:, 0]
            u[:, latent_dim] = cur[:, 0]
        if not want_cache:
            return preds, None
        return preds, {"backbone": bb, "head_input": u, "hidden": hidden, "preds": preds}

    def _backward(self, cache: dict, d_preds: np.ndarray) -> FlatArrays:
        """Gradients of a scalar loss given d(loss)/d(raw head outputs).

        The result is the estimator's gradient buffer: the next backward
        pass overwrites it.
        """

        cfg = self.config
        act = cfg.activation
        if self._grads is None:
            self._grads = FlatArrays(np.zeros(self.n_params), param_layout(cfg))
        grads = self._grads
        grads.flat.fill(0.0)
        params = self.params
        d_pred = d_preds.astype(np.float64).copy()
        latent_dim = cfg.backbone_layers[-1]
        # Each head's input is rebuilt in the forward's buffer from the
        # cached outputs: the latent columns never change.
        u, preds = cache["head_input"], cache["preds"]
        d_latent = np.zeros((u.shape[0], latent_dim))
        last = len(cfg.head_layers) - 1

        for i in reversed(range(cfg.n_heads)):
            u[:, latent_dim] = preds[:, i - 1] if i > 0 else 0.0
            acts = cache["hidden"][i]
            d_cur = d_pred[:, i][:, None]
            for l in reversed(range(last + 1)):
                wk, bk = self._head_keys[i][l]
                d_z = d_cur * _act_grad(acts[l], act) if l < last else d_cur
                grads[wk] += d_z.T @ (acts[l - 1] if l > 0 else u)
                grads[bk] += d_z.sum(axis=0)
                d_cur = d_z @ params[wk]
            d_latent += d_cur[:, :latent_dim]
            if i > 0:
                # The predecessor's output is the chained scalar input.
                d_pred[:, i - 1] += d_cur[:, latent_dim]

        d_h = d_latent
        for l in reversed(range(len(cfg.backbone_layers))):
            wk, bk = self._backbone_keys[l]
            h_in, a = cache["backbone"][l]
            d_z = d_h * _act_grad(a, act)
            grads[wk] += d_z.T @ h_in
            grads[bk] += d_z.sum(axis=0)
            d_prev = d_z @ params[wk]
            if self._residual(l):
                d_prev += d_h
            d_h = d_prev
        return grads

    # The flat vector in layout order, used by checkpoints and the
    # finite-difference tests.

    @property
    def n_params(self) -> int:
        return self.params.flat.size

    def get_flat(self) -> np.ndarray:
        return self.params.flat.copy()

    def set_flat(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=np.float64)
        if flat.shape != (self.n_params,):
            raise ValueError(f"expected {self.n_params} parameters, got {flat.shape}")
        self.params.flat[:] = flat


def loss_mse(prediction: float, target: float, collision_sample: bool, weights: LossWeights) -> float:
    """Squared error, importance-weighted for accepted collision windows."""

    if not 0.0 <= target <= 1.0:
        raise ValueError("targets must lie in [0, 1]")
    w = weights.collision_mse_factor if collision_sample else 1.0
    return w * (target - prediction) ** 2


def loss_interval(prediction: float, c_interval: float) -> float:
    """Hinge on leaving [0, 1]: c * max(0, max(-p, p - 1))."""

    return c_interval * max(0.0, max(-prediction, prediction - 1.0))


def loss_chain(predictions: np.ndarray, head: int, c_chain: float) -> float:
    """One-sided hinges tying head `head` (1-based) to its neighbours.

    The cumulative probability must not decrease with horizon length: the
    first head is penalized only against its successor, the last only
    against its predecessor, interior heads against both.
    """

    p = np.asarray(predictions, dtype=np.float64)
    n = p.shape[0]
    if not 1 <= head <= n:
        raise ValueError(f"head {head} outside 1..{n}")
    if n == 1:
        return 0.0
    idx = head - 1
    total = 0.0
    if idx >= 1:
        total += max(p[idx - 1] - p[idx], 0.0)
    if idx <= n - 2:
        total += max(p[idx] - p[idx + 1], 0.0)
    return c_chain * total


@dataclass
class LossBreakdown:
    total: float
    mse: float
    interval: float
    chain: float
    n_valid: int


def batch_loss_and_grad(
    estimator: MultiHeadEstimator,
    features: np.ndarray,
    targets: np.ndarray,
    valid: np.ndarray,
    collision_mask: np.ndarray,
    weights: LossWeights,
    want_grad: bool = True,
) -> tuple[float, LossBreakdown, FlatArrays | None]:
    """Composite loss (and optionally its gradients) over one batch.

    The loss is the mean over valid (sample, head) entries of squared error
    plus interval and chain penalties. Masked entries contribute nothing,
    but their raw predictions still appear inside neighbours' chain hinges,
    and gradients flow into them through those hinges and through the head
    chaining. The gradients live in the estimator's own buffer, which the
    next gradient call overwrites; copy them to keep them.
    """

    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] == 0:
        raise EmptyBatchError("batch of features must be a nonempty [B, D] matrix")
    targets = np.asarray(targets, dtype=np.float64)
    valid = np.asarray(valid, dtype=bool)
    collision_mask = np.asarray(collision_mask, dtype=bool)
    n_heads = estimator.config.n_heads
    b = features.shape[0]
    if targets.shape != (b, n_heads) or valid.shape != (b, n_heads):
        raise ValueError("targets and valid must both be [B, n_heads]")
    if collision_mask.shape != (b,):
        raise ValueError("collision_mask must be [B]")
    n_valid = int(valid.sum())
    if n_valid == 0:
        raise EmptyBatchError("every (sample, head) entry in the batch is masked")
    checked = targets[valid]
    if not np.all(np.isfinite(checked)) or checked.min() < 0.0 or checked.max() > 1.0:
        raise ValueError("valid targets must be finite and lie in [0, 1]")

    preds, cache = estimator._forward_cached(features, want_cache=want_grad)
    err = preds - np.where(valid, targets, 0.0)
    mse_w = np.where(collision_mask, weights.collision_mse_factor, 1.0)[:, None]
    mse_terms = mse_w * err**2

    below = np.maximum(-preds, 0.0)
    above = np.maximum(preds - 1.0, 0.0)
    interval_terms = weights.c_interval * (below + above)

    # gaps[:, j] > 0 means head j+1 exceeds head j+2 (0-based j): a violation.
    if n_heads > 1:
        gaps = preds[:, :-1] - preds[:, 1:]
        pos = np.maximum(gaps, 0.0)
        chain_terms = np.zeros_like(preds)
        chain_terms[:, 1:] += pos
        chain_terms[:, :-1] += pos
        chain_terms *= weights.c_chain
    else:
        chain_terms = np.zeros_like(preds)

    vmask = valid.astype(np.float64)
    mse_sum = float((mse_terms * vmask).sum())
    interval_sum = float((interval_terms * vmask).sum())
    chain_sum = float((chain_terms * vmask).sum())
    total = (mse_sum + interval_sum + chain_sum) / n_valid
    breakdown = LossBreakdown(
        total=total,
        mse=mse_sum / n_valid,
        interval=interval_sum / n_valid,
        chain=chain_sum / n_valid,
        n_valid=n_valid,
    )
    if not np.isfinite(total):
        raise NonFiniteUpdateError("loss is not finite")
    if not want_grad:
        return total, breakdown, None

    d_preds = vmask * (2.0 * mse_w * err)
    d_preds += vmask * weights.c_interval * (np.where(preds > 1.0, 1.0, 0.0) - np.where(preds < 0.0, 1.0, 0.0))
    if n_heads > 1:
        active = gaps > 0.0
        # Hinge of a valid entry at idx against its predecessor (idx >= 1).
        left = vmask[:, 1:] * active
        d_left = weights.c_chain * left
        d_preds_chain = np.zeros_like(preds)
        d_preds_chain[:, :-1] += d_left
        d_preds_chain[:, 1:] -= d_left
        # Hinge of a valid entry at idx against its successor (idx <= n-2).
        right = vmask[:, :-1] * active
        d_right = weights.c_chain * right
        d_preds_chain[:, :-1] += d_right
        d_preds_chain[:, 1:] -= d_right
        d_preds += d_preds_chain
    d_preds /= n_valid
    grads = estimator._backward(cache, d_preds)
    return total, breakdown, grads


@dataclass
class AdamState:
    """Step count and first/second moments, laid out like the parameters."""

    step: int
    m: FlatArrays
    v: FlatArrays

    @classmethod
    def zeros(cls, estimator: MultiHeadEstimator) -> "AdamState":
        layout = param_layout(estimator.config)
        return cls(
            step=0,
            m=FlatArrays(np.zeros(estimator.n_params), layout),
            v=FlatArrays(np.zeros(estimator.n_params), layout),
        )


def optimizer_step(
    estimator: MultiHeadEstimator,
    grad: np.ndarray,
    state: AdamState,
    learning_rate: float,
) -> MultiHeadEstimator:
    """One bias-corrected Adam update, in place, as whole-vector operations.

    `grad` is the gradient as one vector in the parameter layout, such as
    the `.flat` of `batch_loss_and_grad`'s result. A non-finite gradient
    aborts before any parameter is touched.
    """

    if learning_rate <= 0 or not np.isfinite(learning_rate):
        raise ValueError("learning_rate must be positive and finite")
    g = np.asarray(grad, dtype=np.float64)
    if g.shape != estimator.params.flat.shape:
        raise ValueError(f"expected a gradient of {estimator.n_params} values, got {g.shape}")
    if not np.isfinite(g).all():
        raise NonFiniteUpdateError("non-finite gradient; update aborted")
    state.step += 1
    t = state.step
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    # The order of every operation matches the per-array update
    #   m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g
    #   p -= lr * (m/bc1) / (sqrt(v/bc2) + eps)
    # so the result is bit-identical to it.
    m, v = state.m.flat, state.v.flat
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * g
    v *= ADAM_BETA2
    scratch = (1.0 - ADAM_BETA2) * g
    scratch *= g
    v += scratch
    np.divide(v, bc2, out=scratch)
    np.sqrt(scratch, out=scratch)
    scratch += ADAM_EPS
    update = m / bc1
    update *= learning_rate
    update /= scratch
    estimator.params.flat -= update
    return estimator


# Checkpoints: one JSON document holding a run's whole state. The estimator,
# horizon and loss sections have the shape of the run-config sections of the
# same name; parameters and Adam moments are base64 little-endian float64
# vectors in the layout `param_layout` derives from the estimator section.
# Identical state serializes to identical bytes.


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
class Checkpoint:
    """A training run's whole state: what `train` resumes from, hands to
    `on_epoch_end` and returns, and what a checkpoint file holds. `sampler`
    is the replay generator's `bit_generator.state` after the last completed
    epoch; without one (untrained, or read from a version 1 file) replay
    starts from the configured seed."""

    estimator: MultiHeadEstimator
    horizon: HorizonConfig
    loss_weights: LossWeights
    adam: AdamState
    epochs_completed: int = 0
    sampler: dict | None = None
    metrics: list[EpochMetrics] = field(default_factory=list)


def _encode(arr: np.ndarray) -> str:
    return base64.b64encode(arr.astype("<f8").tobytes()).decode("ascii")


def _decode(text: str, size: int) -> np.ndarray:
    raw = base64.b64decode(text.encode("ascii"))
    arr = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    if arr.shape != (size,):
        raise ValueError(f"expected {size} values, got {arr.shape}")
    return arr


def _count(value, name: str) -> int:
    # bool is an int subclass, so true would pass an isinstance check.
    if type(value) is not int or not 0 <= value < 2**63:
        raise ValueError(f"{name} must be an integer in [0, 2**63), got {value!r}")
    return value


def _epoch_metrics(entry: dict, n_heads: int) -> EpochMetrics:
    m = EpochMetrics(**entry)  # a TypeError for a missing or unknown field
    values = [m.lr, m.loss, m.loss_mse, m.loss_interval, m.loss_chain, m.pes_mean]
    if (type(m.acc_per_head) is not list or len(m.acc_per_head) != n_heads
            or any(type(v) is not float for v in values + m.acc_per_head)):
        raise ValueError("metrics need float values and one acc_per_head value per head")
    return replace(m, epoch=_count(m.epoch, "metrics epoch"), acc_per_head=tuple(m.acc_per_head))


def save_checkpoint(path: str | Path, state: Checkpoint) -> None:
    """Write `state` as a version 2 checkpoint."""

    from .config import to_section  # config imports this module

    adam = state.adam
    write_json(path, {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        # to_section raises TypeError for anything but a config dataclass.
        "estimator": to_section(state.estimator.config),
        "horizon": to_section(state.horizon),
        "loss": to_section(state.loss_weights),
        "epochs_completed": state.epochs_completed,
        "params": _encode(state.estimator.params.flat),
        "adam": {"step": adam.step, "m": _encode(adam.m.flat), "v": _encode(adam.v.flat)},
        "sampler": state.sampler,
        "metrics": [asdict(m) for m in state.metrics],
    })


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read a version 2 or version 1 checkpoint; anything malformed raises
    CheckpointError."""

    from .config import saved_sections  # config imports this module

    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"{path}: not a {CHECKPOINT_FORMAT} document")
    version = doc.get("version")
    if type(version) is not int or version not in (1, CHECKPOINT_VERSION):
        raise CheckpointError(f"{path}: unsupported checkpoint version {version!r}")
    if set(doc) != (CHECKPOINT_KEYS if version > 1 else V1_CHECKPOINT_KEYS):
        raise CheckpointError(f"{path}: missing or unknown fields for version {version}")
    try:
        est_cfg, horizon, weights = saved_sections(doc)
        if est_cfg.n_heads != horizon.n_heads:
            raise ValueError("estimator and horizon disagree on n_heads")
        layout = param_layout(est_cfg)
        sizes = [math.prod(shape) for _, shape in layout]
        if version == 1 and doc["layout"] != [
            {"name": name, "shape": list(shape), "offset": offset, "size": size}
            for (name, shape), offset, size in zip(layout, accumulate([0, *sizes]), sizes)
        ]:
            raise ValueError("parameter layout does not match the estimator section")
        params = _decode(doc["params"], sum(sizes))  # before a huge layer is allocated
        estimator = MultiHeadEstimator(est_cfg)
        estimator.set_flat(params)
        adam = AdamState.zeros(estimator)
        if doc["adam"] is not None or version > 1:
            adam.step = _count(doc["adam"]["step"], "adam.step")
            adam.m.flat[:] = _decode(doc["adam"]["m"], params.size)
            adam.v.flat[:] = _decode(doc["adam"]["v"], params.size)
        state = Checkpoint(estimator, horizon, weights, adam,
                           _count(doc["epochs_completed"], "epochs_completed"))
        if version > 1:
            if doc["sampler"] is not None:
                bit_generator = np.random.PCG64(0)
                bit_generator.state = doc["sampler"]  # raises for a state PCG64 rejects
                state.sampler = bit_generator.state
            state.metrics = [_epoch_metrics(entry, horizon.n_heads) for entry in doc["metrics"]]
    except KeyError as exc:
        raise CheckpointError(f"{path}: missing field {exc}") from exc
    except (AttributeError, TypeError, ValueError, OverflowError) as exc:
        # A field of the wrong type or value, e.g. "n_heads": "five",
        # parameters that are not base64 (binascii.Error is a ValueError)
        # or a sampler state integer wider than 128 bits.
        raise CheckpointError(f"{path}: invalid field: {exc}") from exc
    return state
