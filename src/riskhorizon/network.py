"""Multi-head cumulative-probability estimator with analytic gradients.

A shared fully connected tanh backbone (residual blocks after the first
projection layer) feeds a latent vector to per-head sub-networks of one tanh
hidden layer and a linear scalar output. Head i additionally receives the
scalar output of head i-1 (head 1 receives a constant 0), so the map from
horizon step to probability is built left to right and gradients flow back
through the chain.

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
from pathlib import Path
from typing import Sequence

import numpy as np

from .artifacts import nan_to_null, write_json
from .returns import MAX_HEADS, HorizonConfig

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# A batch forward pads to at least ROW_FLOOR rows, above the largest row
# count at which a layer's matrix product rounds differently, and runs in
# chunks of at most ROW_CHUNK rows, which bounds its activation memory.
ROW_FLOOR = 256
ROW_CHUNK = 512

# Parameters an estimator may hold: 80 MB a float64 copy, and training keeps
# about six (parameters, gradients, two Adam moments, update scratch). The
# count is checked from the layer shapes, before any of them is allocated.
MAX_PARAMS = 10_000_000

CHECKPOINT_FORMAT = "riskhorizon-checkpoint"
CHECKPOINT_VERSION = 3
CHECKPOINT_KEYS = {"format", "version", "estimator", "horizon", "loss", "epochs_completed",
                   "params", "adam", "sampler", "metrics"}


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
    head_layers: tuple[int, ...] = (16, 1)  # [width, 1]: one hidden layer, one output
    init_seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "backbone_layers", tuple(self.backbone_layers))
        object.__setattr__(self, "head_layers", tuple(self.head_layers))
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if not 1 <= self.n_heads <= MAX_HEADS:
            raise ValueError(f"n_heads must be >= 1 and at most {MAX_HEADS}")
        if not self.backbone_layers or any(w < 1 for w in self.backbone_layers):
            raise ValueError("backbone_layers must be nonempty positive widths")
        if len(self.head_layers) != 2 or self.head_layers[0] < 1 or self.head_layers[1] != 1:
            raise ValueError(f"head_layers must be [width, 1] with width >= 1, "
                             f"got {list(self.head_layers)}")
        if self.init_seed < 0:
            raise ValueError("init_seed must be >= 0")
        n_params = sum((in_dim + 1) * out_dim for _, out_dim, in_dim in _dense_layers(self))
        if n_params > MAX_PARAMS:
            raise ValueError(f"the layers hold {n_params} parameters, more than {MAX_PARAMS}")


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
        # A backbone layer is residual when it preserves width; the first
        # layer projects the input and never is.
        widths = [config.input_dim, *config.backbone_layers]
        self._residual = tuple(l > 0 and widths[l] == widths[l + 1]
                               for l in range(len(config.backbone_layers)))
        # Every layer's (weight, bias) views of params.flat, bound once; the
        # passes walk these. params.flat is only ever written in place, so
        # the views always hold the current values.
        backbone, self._heads = self._layer_views(self.params)
        self._backbone = [(w, b, res) for (w, b), res in zip(backbone, self._residual)]
        # Gradient buffer in the same layout, and its layer views, made by
        # the first backward pass and reused by every later one.
        self._grads: FlatArrays | None = None

    def _layer_views(self, arrays: FlatArrays) -> tuple[list, list]:
        """The (weight, bias) views of `arrays` per backbone layer, and per
        head its hidden layer's weight and bias, its output layer's weight
        row [width] and its output bias [1]."""

        layers = [(arrays[f"{name}.w"], arrays[f"{name}.b"])
                  for name, _, _ in _dense_layers(self.config)]
        n_backbone = len(self.config.backbone_layers)
        hidden, out = layers[n_backbone::2], layers[n_backbone + 1::2]
        return layers[:n_backbone], [(w, b, w_out[0], b_out)
                                     for (w, b), (w_out, b_out) in zip(hidden, out)]

    def forward(self, features: np.ndarray) -> np.ndarray:
        """Raw head outputs; [n_heads] for a vector, [B, n_heads] for a batch.

        A batch is row-invariant: each row's output depends on that row
        alone, bit for bit, not on the rows around it. BLAS rounds a
        matrix product the same way for every row count above a small
        threshold per shape, but a one-output product (a matrix-vector
        product) differs up to several hundred rows. So a batch runs in
        near-equal chunks of at most ROW_CHUNK rows, a batch under ROW_FLOOR
        rows is zero-padded up to it, and each head's output layer runs as a
        2-output product against its weight plus one zero row.

        A vector (one observation, as a collision alert scores it) runs as
        matrix-vector products and gets the bits the training step's
        unpadded forward gives that row alone. It reads the weights on
        every call, so an update in place is seen by the next call.
        """

        x = np.asarray(features, dtype=np.float64)
        if x.ndim < 2:
            return self._forward_vector(x)
        cfg = self.config
        if x.ndim != 2 or x.shape[1] != cfg.input_dim:
            raise ValueError(f"features must be [B, {cfg.input_dim}], got {x.shape}")
        padded_out = np.zeros((cfg.n_heads, 2, cfg.head_layers[0]))
        for i, (_, _, w_out, _) in enumerate(self._heads):
            padded_out[i, 0] = w_out
        n = x.shape[0]
        if n < ROW_FLOOR:
            x = np.concatenate([x, np.zeros((ROW_FLOOR - n, cfg.input_dim))])
        chunks = -(-len(x) // ROW_CHUNK)
        bounds = [len(x) * k // chunks for k in range(chunks + 1)]
        preds = np.empty((len(x), cfg.n_heads))
        for lo, hi in zip(bounds, bounds[1:]):
            preds[lo:hi] = self._forward_cached(x[lo:hi], False, padded_out)[0]
        return preds[:n]

    def _forward_vector(self, x: np.ndarray) -> np.ndarray:
        """Raw head outputs [n_heads] of one observation [input_dim]: the
        layers of `_forward_cached`, as products with a vector. Per-call
        overhead dominates here, and the `ndarray.dot` method skips
        `np.dot`'s dispatch: about 0.2 us a layer, 42 layers on corridor."""

        cfg = self.config
        if x.shape != (cfg.input_dim,):
            raise ValueError(f"an observation must be [{cfg.input_dim}], got shape {x.shape}")
        h = x
        for w, b, residual in self._backbone:
            a = w.dot(h)
            a += b
            np.tanh(a, a)
            if residual:
                a += h
            h = a

        latent_dim = cfg.backbone_layers[-1]
        u = np.empty(latent_dim + 1)
        u[:latent_dim] = h
        u[latent_dim] = 0.0
        preds = np.empty(cfg.n_heads)
        for i, (w, b, w_out, b_out) in enumerate(self._heads):
            z = w.dot(u)
            z += b
            np.tanh(z, z)
            # The scalar output layer stays linear.
            preds[i] = u[latent_dim] = w_out.dot(z) + b_out[0]
        return preds

    def _forward_cached(self, x: np.ndarray, want_cache: bool = True,
                        padded_out: np.ndarray | None = None):
        """Raw head outputs [B, n_heads], and the cache `_backward` needs.

        Every head reads one [B, latent + 1] input buffer: the latent
        columns are filled once, and the last column is overwritten with
        the previous head's output before each head runs. The buffer and
        every temporary belong to this call alone. With `padded_out`
        ([n_heads, 2, width]: per head, the output layer's weight with one
        zero row appended), each output layer runs as a 2-output product.
        """

        cfg = self.config
        if x.ndim != 2 or x.shape[1] != cfg.input_dim:
            raise ValueError(f"features must be [B, {cfg.input_dim}], got {x.shape}")
        h = x
        bb = []
        for w, b, residual in self._backbone:
            a = h.dot(w.T)
            a += b
            np.tanh(a, a)
            if want_cache:
                bb.append((h, a))
            h = a + h if residual else a  # the cache holds a

        n = x.shape[0]
        latent_dim = cfg.backbone_layers[-1]
        u = np.empty((n, latent_dim + 1))
        u[:, :latent_dim] = h
        u[:, latent_dim] = 0.0
        preds = np.empty((n, cfg.n_heads))
        hidden = []
        for i, (w, b, w_out, b_out) in enumerate(self._heads):
            # Not named `a`, which would free the backbone's last activation
            # here: the order of frees decides whether the allocator gives
            # a chunk's pages back and faults them in again on every call.
            z = u.dot(w.T)
            z += b
            np.tanh(z, z)
            if want_cache:
                hidden.append(z)
            # The scalar output layer stays linear.
            out = z.dot(w_out) if padded_out is None else z.dot(padded_out[i].T)[:, 0]
            out += b_out
            preds[:, i] = out
            u[:, latent_dim] = out
        if not want_cache:
            return preds, None
        return preds, {"backbone": bb, "head_input": u, "hidden": hidden, "preds": preds}

    def _backward(self, cache: dict, d_preds: np.ndarray) -> FlatArrays:
        """Gradients of a scalar loss given d(loss)/d(raw head outputs).

        The result is the estimator's gradient buffer: the next backward
        pass overwrites it. Each of its arrays is written once, by a product
        or a sum that starts from +0.0, so it holds the bits that adding into
        a zero-filled buffer would give, the sign of a zero included.
        """

        cfg = self.config
        if self._grads is None:
            self._grads = FlatArrays(np.zeros(self.n_params), param_layout(cfg))
            self._grad_backbone, self._grad_heads = self._layer_views(self._grads)
        d_pred = np.array(d_preds, dtype=np.float64)
        latent_dim = cfg.backbone_layers[-1]
        # Each head's input is rebuilt in the forward's buffer from the
        # cached outputs: the latent columns never change.
        u, preds = cache["head_input"], cache["preds"]
        d_latent = np.zeros((u.shape[0], latent_dim))

        for i in reversed(range(cfg.n_heads)):
            u[:, latent_dim] = preds[:, i - 1] if i > 0 else 0.0
            w, _, w_out, _ = self._heads[i]
            grad_w, grad_b, grad_w_out, grad_b_out = self._grad_heads[i]
            z = cache["hidden"][i]
            d_out = d_pred[:, i][:, None]  # the output layer is linear
            np.matmul(d_out.T, z, out=grad_w_out[None])
            np.add.reduce(d_out, axis=0, out=grad_b_out)
            # [B, 1] times the weight row, times tanh's derivative: [B, width]
            d_z = d_out * w_out * (1.0 - z * z)
            np.matmul(d_z.T, u, out=grad_w)
            np.add.reduce(d_z, axis=0, out=grad_b)
            d_u = d_z.dot(w)
            d_latent += d_u[:, :latent_dim]
            if i > 0:
                # The predecessor's output is the chained scalar input.
                d_pred[:, i - 1] += d_u[:, latent_dim]

        d_h = d_latent
        for l in reversed(range(len(self._backbone))):
            (w, _, residual), (grad_w, grad_b) = self._backbone[l], self._grad_backbone[l]
            h_in, a = cache["backbone"][l]
            d_z = d_h * (1.0 - a * a)
            np.matmul(d_z.T, h_in, out=grad_w)
            np.add.reduce(d_z, axis=0, out=grad_b)
            if l == 0:
                break  # layer 0's input is the features: nothing reads their gradient
            d_prev = d_z.dot(w)
            if residual:
                d_prev += d_h
            d_h = d_prev
        return self._grads

    # The flat vector in layout order, used by checkpoints and the
    # finite-difference tests.

    @property
    def n_params(self) -> int:
        return self.params.flat.size

    def set_flat(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=np.float64)
        if flat.shape != (self.n_params,):
            raise ValueError(f"expected {self.n_params} parameters, got {flat.shape}")
        self.params.flat[:] = flat


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
) -> tuple[float, LossBreakdown, FlatArrays]:
    """Composite loss and its gradients over one batch.

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

    preds, cache = estimator._forward_cached(features)
    vmask = valid.astype(np.float64)
    # Each term array, `vmask * (c * penalty)`, is summed before the next overwrites it.
    err = preds - np.where(valid, targets, 0.0)
    mse_w = np.where(collision_mask, weights.collision_mse_factor, 1.0)[:, None]
    terms = mse_w * err**2
    terms *= vmask
    mse_sum = float(terms.sum())
    np.maximum(np.negative(preds, out=terms), 0.0, out=terms)
    terms += np.maximum(preds - 1.0, 0.0)
    terms *= weights.c_interval
    terms *= vmask
    interval_sum = float(terms.sum())
    # gaps[:, j] > 0 means head j+1 exceeds head j+2 (0-based j): a violation.
    # With one head the slices are empty and every chain term stays 0.
    gaps = preds[:, :-1] - preds[:, 1:]
    pos = np.maximum(gaps, 0.0)
    terms.fill(0.0)
    terms[:, 1:] += pos
    terms[:, :-1] += pos
    terms *= weights.c_chain
    terms *= vmask
    chain_sum = float(terms.sum())
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

    d_preds = vmask * (2.0 * mse_w * err)
    # The interval slope is in {-1, 0, 1}: scaling it by c and the mask is exact in any order.
    np.subtract(np.greater(preds, 1.0, out=terms), np.less(preds, 0.0), out=terms)
    terms *= weights.c_interval
    terms *= vmask
    d_preds += terms
    # An active hinge between heads j and j+1 counts once for each of its
    # valid ends: its weight is 0, c or 2c, so every sum below is exact.
    w = weights.c_chain * ((gaps > 0.0) * (vmask[:, :-1] + vmask[:, 1:]))
    terms.fill(0.0)
    terms[:, :-1] += w
    terms[:, 1:] -= w
    d_preds += terms
    d_preds /= n_valid
    grads = estimator._backward(cache, d_preds)
    return total, breakdown, grads


@dataclass
class AdamState:
    """Step count and first/second moments, vectors in the parameter layout."""

    step: int
    m: np.ndarray
    v: np.ndarray

    @classmethod
    def zeros(cls, estimator: MultiHeadEstimator) -> "AdamState":
        return cls(step=0, m=np.zeros(estimator.n_params), v=np.zeros(estimator.n_params))


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
    m, v = state.m, state.v
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
    epoch, and None only before the first."""

    estimator: MultiHeadEstimator
    horizon: HorizonConfig
    loss_weights: LossWeights
    adam: AdamState
    epochs_completed: int = 0
    sampler: dict | None = None
    metrics: list[EpochMetrics] = field(default_factory=list)


def _encode(arr: np.ndarray) -> str:
    return base64.b64encode(arr.astype("<f8").tobytes()).decode("ascii")


def _decode(text: str, size: int, name: str) -> np.ndarray:
    raw = base64.b64decode(text.encode("ascii"))
    arr = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    if arr.shape != (size,):
        raise ValueError(f"{name}: expected {size} values, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name}: the values must be finite")
    return arr


def _count(value, name: str) -> int:
    # bool is an int subclass, so true would pass an isinstance check.
    if type(value) is not int or not 0 <= value < 2**63:
        raise ValueError(f"{name} must be an integer in [0, 2**63), got {value!r}")
    return value


def _epoch_metrics(entry: dict, n_heads: int) -> EpochMetrics:
    m = EpochMetrics(**entry)  # a TypeError for a missing or unknown field
    if type(m.acc_per_head) is not list or len(m.acc_per_head) != n_heads:
        raise ValueError("metrics need one acc_per_head value per head")
    losses = [m.lr, m.loss, m.loss_mse, m.loss_interval, m.loss_chain]
    # A held-out error without a window is written as null and read as NaN.
    held_out = [math.nan if v is None else v for v in (m.pes_mean, *m.acc_per_head)]
    if (any(type(v) is not float for v in losses + held_out)
            or not np.isfinite(losses).all() or np.isinf(held_out).any()):
        raise ValueError("metrics need finite floats, and a float or null held-out error")
    return replace(m, epoch=_count(m.epoch, "metrics epoch"), pes_mean=held_out[0],
                   acc_per_head=tuple(held_out[1:]))


def save_checkpoint(path: str | Path, state: Checkpoint) -> None:
    """Write `state` as a version 3 checkpoint."""

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
        "adam": {"step": adam.step, "m": _encode(adam.m), "v": _encode(adam.v)},
        "sampler": state.sampler,
        "metrics": [{**asdict(m), "pes_mean": nan_to_null(m.pes_mean),
                     "acc_per_head": [nan_to_null(a) for a in m.acc_per_head]}
                    for m in state.metrics],
    })


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read a version 3 checkpoint; anything else raises CheckpointError,
    non-finite parameters or Adam moments included."""

    from .config import saved_sections  # config imports this module

    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"{path}: not a {CHECKPOINT_FORMAT} document")
    version = doc.get("version")
    if type(version) is not int or version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: a version {version!r} checkpoint; this version reads "
                              f"version {CHECKPOINT_VERSION}: re-run `riskhorizon train` to "
                              "rebuild it")
    if set(doc) != CHECKPOINT_KEYS:
        raise CheckpointError(f"{path}: missing or unknown fields")
    try:
        est_cfg, horizon, weights = saved_sections(doc)
        if est_cfg.n_heads != horizon.n_heads:
            raise ValueError("estimator and horizon disagree on n_heads")
        size = sum(math.prod(shape) for _, shape in param_layout(est_cfg))
        params = _decode(doc["params"], size, "params")  # before a huge layer is allocated
        estimator = MultiHeadEstimator(est_cfg)
        estimator.set_flat(params)
        adam = AdamState.zeros(estimator)
        adam.step = _count(doc["adam"]["step"], "adam.step")
        adam.m[:] = _decode(doc["adam"]["m"], size, "adam.m")
        adam.v[:] = _decode(doc["adam"]["v"], size, "adam.v")
        state = Checkpoint(estimator, horizon, weights, adam,
                           _count(doc["epochs_completed"], "epochs_completed"))
        if doc["sampler"] is not None:
            bit_generator = np.random.PCG64(0)
            bit_generator.state = doc["sampler"]  # raises for a state PCG64 rejects
            state.sampler = bit_generator.state
        elif state.epochs_completed > 0:
            raise ValueError("a checkpoint after a completed epoch needs its sampler state")
        state.metrics = [_epoch_metrics(entry, horizon.n_heads) for entry in doc["metrics"]]
    except KeyError as exc:
        raise CheckpointError(f"{path}: missing field {exc}") from exc
    except (AttributeError, TypeError, ValueError, OverflowError) as exc:
        # A field of the wrong type or value, e.g. "n_heads": "five",
        # parameters that are not base64 (binascii.Error is a ValueError)
        # or a sampler state integer wider than 128 bits.
        raise CheckpointError(f"{path}: invalid field: {exc}") from exc
    return state
