"""Multilayer perceptron with analytic reverse-mode gradients.

The network is a stack of dense layers with ReLU between them and softmax
cross-entropy on top. Fake quantization or additive noise can be inserted on
the weights, and a uniform quantizer can sit on each post-ReLU activation
right before the next matrix multiply. Backward always produces gradients
with respect to the full-precision (shadow) parameters: rounding is handled
by the straight-through rule, additive noise is treated as a constant.

Also hosts the kurtosis regularizer used to push weight and activation
tensors toward a flat distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import Batch
from .errors import DegenerateTensorError, NumericError, ShapeError, UsageError
from .quantize import QuantSpec, pseudo_quantize, quantize, ste_backward
from .rng import RngStream


class ParamSet:
    """Ordered dense layers (weight in x out, bias out), each a view into one
    float64 vector ``vec``: weight (row-major) then bias, layer by layer."""

    def __init__(self, layers: list[tuple[np.ndarray, np.ndarray]]):
        layers = [(np.asarray(w, dtype=np.float64), np.asarray(b, dtype=np.float64))
                  for w, b in layers]
        if not layers:
            raise ShapeError("a ParamSet needs at least one layer")
        for i, (w, b) in enumerate(layers):
            if w.ndim != 2 or b.ndim != 1 or w.shape[1] != b.shape[0]:
                raise ShapeError(f"layer {i} weight/bias shapes inconsistent")
            if i > 0 and layers[i - 1][0].shape[1] != w.shape[0]:
                raise ShapeError(f"layer {i-1} output does not chain into layer {i}")
        self._bind(np.concatenate([np.ravel(t) for pair in layers for t in pair]),
                   [w.shape for w, _ in layers])

    def _bind(self, vec: np.ndarray, shapes: list[tuple[int, int]]) -> None:
        self.vec, self.layers, pos = vec, [], 0
        for rows, cols in shapes:
            end = pos + rows * cols
            self.layers.append((vec[pos:end].reshape(rows, cols), vec[end:end + cols]))
            pos = end + cols

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def dim(self) -> int:
        return self.vec.size

    @property
    def widths(self) -> list[int]:
        return [self.layers[0][0].shape[0]] + [w.shape[1] for w, _ in self.layers]

    def weights(self) -> list[np.ndarray]:
        return [w for w, _ in self.layers]

    def copy(self) -> "ParamSet":
        return self.unflatten(self.vec.copy())

    def flatten(self) -> np.ndarray:
        """The parameter vector itself, not a copy."""
        return self.vec

    def unflatten(self, vec: np.ndarray) -> "ParamSet":
        """A ParamSet with this one's shapes over ``vec``, without copying it."""
        vec = np.ascontiguousarray(vec, dtype=np.float64)
        if vec.shape != self.vec.shape:
            raise ShapeError(f"expected a flat vector of length {self.dim}")
        out = ParamSet.__new__(ParamSet)
        out._bind(vec, [w.shape for w, _ in self.layers])
        return out

    def add_scaled(self, other: "ParamSet", scale: float) -> None:
        """In-place self += scale * other (used for SGD steps and regularizers)."""
        self.vec += scale * other.vec


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product of two rank-2 tensors with explicit shape checking.

    A non-finite product raises NumericError, which local training reports
    as a diverged client.
    """
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul needs rank-2 inputs, got {a.ndim} and {b.ndim}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"inner dimensions differ: {a.shape} x {b.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        out = a @ b
    if not np.isfinite(out).all():
        raise NumericError("matmul result contains non-finite values")
    return out


def init_params(widths: list[int], rng: RngStream) -> ParamSet:
    """He-style Gaussian init for ReLU stacks; biases start at zero."""
    if len(widths) < 2:
        raise ShapeError("need at least input and output widths")
    layers = []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        w = rng.normal((fan_in, fan_out)) * np.sqrt(2.0 / fan_in)
        layers.append((w, np.zeros(fan_out)))
    return ParamSet(layers)


@dataclass
class QuantPlan:
    """What the forward pass does to each weight and each hidden activation.

    ``weights`` has one entry per layer and ``acts`` one per post-ReLU
    activation; an empty list leaves every tensor of its kind untouched. An
    entry is ``None`` (untouched), a ``QuantSpec`` (snapped to its grid,
    straight-through gradient) or a number (additive uniform noise of that
    width, a constant to backward). The raw network input is never touched.
    """

    weights: list[QuantSpec | float | None] = field(default_factory=list)
    acts: list[QuantSpec | float | None] = field(default_factory=list)

    @property
    def needs_rng(self) -> bool:
        return any(e is not None and not isinstance(e, QuantSpec)
                   for e in self.weights + self.acts)


PLAIN_PLAN = QuantPlan()


@dataclass
class ForwardCache:
    """Everything backward needs, including the effective (quantized/noised)
    weights so APQN replays the exact perturbation it sampled. Each hidden
    layer's ``relu_raw`` entry is its matmul output with the ReLU applied in
    place; ``relu_raw > 0`` is the ReLU's backward mask."""

    plan: QuantPlan
    batch: Batch
    params: ParamSet                    # the shadow parameters forward read
    eff_weights: list[np.ndarray]
    layer_inputs: list[np.ndarray]      # effective input to each matmul
    relu_raw: list[np.ndarray]          # post-ReLU, before activation quant
    probs: np.ndarray
    consumed: bool = field(default=False)


def _softmax_ce(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    shifted = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.add.reduce(np.exp(shifted), axis=1))
    n = logits.shape[0]
    # np.mean of a vector is this sum over n, without its Python wrapper
    loss = float(np.add.reduce(lse - shifted[np.arange(n), labels]) / n)
    probs = np.exp(shifted - lse[:, None])
    return loss, probs


def _apply(x: np.ndarray, entries: list | None, i: int,
           rng: RngStream | None = None,
           out: np.ndarray | None = None) -> np.ndarray:
    """``x`` under plan entry ``entries[i]`` (see ``QuantPlan``); a grid
    writes its result to ``out`` as ``quantize`` does."""
    entry = entries[i] if entries else None
    if entry is None:
        return x
    if isinstance(entry, QuantSpec):
        return quantize(x, entry, out=out)
    return pseudo_quantize(x, entry, rng)


def _ste(grad: np.ndarray, x: np.ndarray, entries: list, i: int) -> np.ndarray:
    """``grad`` masked by the straight-through rule where ``entries[i]``
    snapped ``x`` to a grid; noise and untouched tensors pass it whole."""
    entry = entries[i] if entries else None
    return ste_backward(grad, x, entry) if isinstance(entry, QuantSpec) else grad


def forward(params: ParamSet, batch: Batch, plan: QuantPlan = PLAIN_PLAN,
            rng: RngStream | None = None) -> tuple[float, ForwardCache]:
    """Mean softmax cross-entropy under the plan's weight/activation transforms."""
    if batch.inputs.shape[1] != params.layers[0][0].shape[0]:
        raise ShapeError("batch feature width does not match the first layer")
    if plan.needs_rng and rng is None:
        raise UsageError("a plan with noise needs a stream to sample it from")
    n_layers = params.num_layers
    a = batch.inputs
    eff_weights, layer_inputs, relu_raw = [], [], []
    for l, (w, b) in enumerate(params.layers):
        w_eff = _apply(w, plan.weights, l, rng)
        layer_inputs.append(a)
        eff_weights.append(w_eff)
        h = matmul(a, w_eff)
        h += b
        if l < n_layers - 1:
            np.maximum(h, 0.0, out=h)
            relu_raw.append(h)
            a = _apply(h, plan.acts, l, rng)
    loss, probs = _softmax_ce(h, batch.labels)
    if not math.isfinite(loss):
        raise NumericError("forward produced a non-finite loss")
    cache = ForwardCache(plan=plan, batch=batch, params=params,
                         eff_weights=eff_weights, layer_inputs=layer_inputs,
                         relu_raw=relu_raw, probs=probs)
    return loss, cache


def backward(cache: ForwardCache,
             extra_act_grads: list[np.ndarray | None] | None = None) -> ParamSet:
    """Gradients of the cached loss w.r.t. the shadow (unquantized) parameters.

    ``extra_act_grads`` injects additional dLoss/dActivation terms at each raw
    post-ReLU tensor (used by the activation-kurtosis regularizer).
    """
    if cache.consumed:
        raise UsageError("backward cache already consumed; rerun forward")
    cache.consumed = True
    plan = cache.plan
    n = cache.batch.size
    params = cache.params
    dlogits = cache.probs.copy()
    dlogits[np.arange(n), cache.batch.labels] -= 1.0
    dh = dlogits / n
    grads = params.unflatten(np.empty_like(params.vec))
    for l in range(params.num_layers - 1, -1, -1):
        gw, gb = grads.layers[l]
        np.matmul(cache.layer_inputs[l].T, dh, out=gw)
        if plan.weights and isinstance(plan.weights[l], QuantSpec):
            gw[...] = ste_backward(gw, params.layers[l][0], plan.weights[l])
        np.add.reduce(dh, axis=0, out=gb)
        if l > 0:
            da = _ste(dh @ cache.eff_weights[l].T, cache.relu_raw[l - 1],
                      plan.acts, l - 1)
            if extra_act_grads is not None and extra_act_grads[l - 1] is not None:
                da = da + extra_act_grads[l - 1]
            dh = da * (cache.relu_raw[l - 1] > 0.0)
    return grads


def _kurtosis_with_gradient(t: np.ndarray) -> tuple[float, np.ndarray]:
    """Kurtosis K = E[((t - mean) / std)^4] (population std) of ``t`` and
    dK/dt_j = 4/(n*var^2) * (c_j^3 - mean(c^3) - K*var*c_j), c = t - mean,
    from one pass that computes c, c^3 and c^4 once."""
    flat = np.asarray(t, dtype=np.float64).ravel()
    n = flat.size
    if n < 2:
        raise ShapeError("kurtosis needs at least 2 elements")
    c = flat - flat.mean()
    var = np.mean(c * c)
    if var <= 0.0:
        raise DegenerateTensorError("kurtosis undefined for a constant tensor")
    c3 = c ** 3
    k = np.mean(c ** 4) / var ** 2
    grad = (4.0 / (n * var ** 2)) * (c3 - np.mean(c3) - k * var * c)
    return float(k), grad.reshape(np.shape(t))


def kure_terms(tensors: list[np.ndarray], k_tau: float
               ) -> tuple[float, list[np.ndarray]]:
    """Mean over ``tensors`` (weights or ``ForwardCache.relu_raw``) of
    (kurtosis(t) - k_tau)^2 and its gradient, one new array per tensor, from
    one pass over each; scale both by the regularizer weight before use."""
    if not tensors:
        raise ShapeError("kurtosis regularizer needs at least one tensor")
    m = len(tensors)
    penalties, grads = [], []
    for t in tensors:
        k, dk = _kurtosis_with_gradient(t)
        penalties.append((k - k_tau) ** 2)
        dk *= 2.0 * (k - k_tau) / m
        grads.append(dk)
    return float(np.mean(penalties)), grads


# Values in one eval-forward block's widest activation (2 MiB of float64).
BLOCK_VALUES = 1 << 18
# Multiply-adds up to which OpenBLAS 0.3.31 may run a product through its
# small-matrix kernel, whose rows differ from the same rows of a larger
# product; one row runs through gemv, which differs too.
SMALL_PRODUCT = 10 ** 6


def predict_logits(params: ParamSet, inputs: np.ndarray,
                   plan: QuantPlan = PLAIN_PLAN) -> np.ndarray:
    """Forward pass to logits only (used by evaluation), under the plan's
    weight and activation grids; a plan with noise is rejected.

    Each weight is quantized once per call. The rows then run in blocks,
    split as evenly as ``np.array_split`` splits them; one ``np.concatenate``
    joins the blocks' logits, and an input that fits in one block returns
    its logits as they are. Blocks hold at most ``BLOCK_VALUES // widest
    layer`` rows, so the pass holds two block activations at a time however
    many rows it scores: within a block each layer's matmul output is its
    only new activation-sized array, and the bias, the ReLU and the
    activation grid (``_apply(..., out=)``) apply to it in place. Besides
    those it holds the quantized weights, the logits and a boolean mask or
    the block-sized ``np.copysign`` temporary of ``round_half_away``.

    The logits equal those of one unblocked pass bit for bit. So no block
    is split off that holds one row or whose product with some layer takes
    ``SMALL_PRODUCT`` multiply-adds or fewer; that rule wins over the row
    bound, and inputs too small to split run as one product, as the
    unblocked pass does.
    """
    if plan.needs_rng:
        raise UsageError("predict_logits takes grids, not noise")
    a = np.asarray(inputs, dtype=np.float64)
    weights = [_apply(w, plan.weights, l) for l, (w, _) in enumerate(params.layers)]
    most = max(1, BLOCK_VALUES // max(params.widths))
    least = max(2, SMALL_PRODUCT // min(w.size for w in weights) + 1)
    blocks = max(1, min(-(-len(a) // most), len(a) // least))

    def run(h: np.ndarray) -> np.ndarray:
        for l, (w, (_, b)) in enumerate(zip(weights, params.layers)):
            h = matmul(h, w)
            h += b
            if l < len(weights) - 1:
                np.maximum(h, 0.0, out=h)
                h = _apply(h, plan.acts, l, out=h)
        return h

    if blocks == 1:
        return run(a)
    return np.concatenate([run(block) for block in np.array_split(a, blocks)])


def score(logits: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
    """Top-1 accuracy (argmax ties go to the lowest class) and mean
    cross-entropy of ``logits`` against integer ``labels``."""
    labels = np.asarray(labels, dtype=np.int64)
    acc = float(np.mean(np.argmax(logits, axis=1) == labels))
    # finite logits far apart overflow the loss; forward raises on it too
    with np.errstate(over="ignore"):
        loss, _ = _softmax_ce(logits, labels)
    if not math.isfinite(loss):
        raise NumericError("scoring produced a non-finite loss")
    return acc, loss

