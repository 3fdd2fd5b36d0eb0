"""Multilayer perceptron with analytic reverse-mode gradients.

The network is a stack of dense layers with ReLU between them and softmax
cross-entropy on top. Fake quantization or additive noise can be inserted on
the weights, and a uniform quantizer can sit on each post-ReLU activation
right before the next matrix multiply. Backward always produces gradients
with respect to the full-precision (shadow) parameters: rounding is handled
by the straight-through rule, additive noise is treated as a constant.

Also hosts the kurtosis statistic and the kurtosis regularizer used to push
weight tensors toward a flat distribution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateTensorError, NumericError, ShapeError, UsageError
from .quantize import QuantSpec, pseudo_quantize, quantize, ste_backward
from .rng import RngStream


@dataclass
class Batch:
    """A mini-batch of inputs (n x d) and integer class labels (n,)."""

    inputs: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.inputs.ndim != 2 or self.labels.ndim != 1:
            raise ShapeError("batch needs rank-2 inputs and rank-1 labels")
        if self.inputs.shape[0] != self.labels.shape[0] or self.labels.shape[0] < 1:
            raise ShapeError("batch inputs and labels must pair up, n >= 1")

    @property
    def size(self) -> int:
        return self.inputs.shape[0]


class ParamSet:
    """Ordered dense layers (weight in x out, bias out) with exact flattening."""

    def __init__(self, layers: list[tuple[np.ndarray, np.ndarray]]):
        self.layers = [(np.asarray(w, dtype=np.float64), np.asarray(b, dtype=np.float64))
                       for w, b in layers]
        for i, (w, b) in enumerate(self.layers):
            if w.ndim != 2 or b.ndim != 1 or w.shape[1] != b.shape[0]:
                raise ShapeError(f"layer {i} weight/bias shapes inconsistent")
            if i > 0 and self.layers[i - 1][0].shape[1] != w.shape[0]:
                raise ShapeError(f"layer {i-1} output does not chain into layer {i}")

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def dim(self) -> int:
        return sum(w.size + b.size for w, b in self.layers)

    @property
    def widths(self) -> list[int]:
        return [self.layers[0][0].shape[0]] + [w.shape[1] for w, _ in self.layers]

    def weights(self) -> list[np.ndarray]:
        return [w for w, _ in self.layers]

    def copy(self) -> "ParamSet":
        return ParamSet([(w.copy(), b.copy()) for w, b in self.layers])

    def flatten(self) -> np.ndarray:
        return np.concatenate([np.ravel(t) for pair in self.layers for t in pair])

    def unflatten(self, vec: np.ndarray) -> "ParamSet":
        """Rebuild a ParamSet with this one's shapes from a flat vector."""
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != (self.dim,):
            raise ShapeError(f"expected a flat vector of length {self.dim}")
        out, pos = [], 0
        for w, b in self.layers:
            wt = vec[pos:pos + w.size].reshape(w.shape); pos += w.size
            bt = vec[pos:pos + b.size].copy(); pos += b.size
            out.append((wt.copy(), bt))
        return ParamSet(out)

    def add_scaled(self, other: "ParamSet", scale: float) -> None:
        """In-place self += scale * other (used for SGD steps and regularizers)."""
        for (w, b), (ow, ob) in zip(self.layers, other.layers):
            w += scale * ow
            b += scale * ob


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
    if not np.all(np.isfinite(out)):
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
    weights so APQN replays the exact perturbation it sampled."""

    plan: QuantPlan
    batch: Batch
    raw_weights: list[np.ndarray]
    eff_weights: list[np.ndarray]
    layer_inputs: list[np.ndarray]      # effective input to each matmul
    pre_acts: list[np.ndarray]          # h_l = a_l @ W_l + b_l
    relu_raw: list[np.ndarray]          # post-ReLU, before activation quant
    probs: np.ndarray
    loss: float
    consumed: bool = field(default=False)


def _softmax_ce(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    shifted = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.sum(np.exp(shifted), axis=1))
    n = logits.shape[0]
    loss = float(np.mean(lse - shifted[np.arange(n), labels]))
    probs = np.exp(shifted - lse[:, None])
    return loss, probs


def _apply(x: np.ndarray, entries: list | None, i: int,
           rng: RngStream | None = None) -> np.ndarray:
    """``x`` under plan entry ``entries[i]`` (see ``QuantPlan``)."""
    entry = entries[i] if entries else None
    if entry is None:
        return x
    if isinstance(entry, QuantSpec):
        return quantize(x, entry)
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
    eff_weights, layer_inputs, pre_acts, relu_raw = [], [], [], []
    for l, (w, b) in enumerate(params.layers):
        w_eff = _apply(w, plan.weights, l, rng)
        layer_inputs.append(a)
        eff_weights.append(w_eff)
        h = matmul(a, w_eff) + b
        pre_acts.append(h)
        if l < n_layers - 1:
            r = np.maximum(h, 0.0)
            relu_raw.append(r)
            a = _apply(r, plan.acts, l, rng)
    loss, probs = _softmax_ce(pre_acts[-1], batch.labels)
    if not np.isfinite(loss):
        raise NumericError("forward produced a non-finite loss")
    cache = ForwardCache(plan=plan, batch=batch,
                         raw_weights=[w for w, _ in params.layers],
                         eff_weights=eff_weights, layer_inputs=layer_inputs,
                         pre_acts=pre_acts, relu_raw=relu_raw,
                         probs=probs, loss=loss)
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
    n_layers = len(cache.raw_weights)
    dlogits = cache.probs.copy()
    dlogits[np.arange(n), cache.batch.labels] -= 1.0
    dh = dlogits / n
    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * n_layers
    for l in range(n_layers - 1, -1, -1):
        dw = _ste(cache.layer_inputs[l].T @ dh, cache.raw_weights[l],
                  plan.weights, l)
        db = dh.sum(axis=0)
        grads[l] = (dw, db)
        if l > 0:
            da = _ste(dh @ cache.eff_weights[l].T, cache.relu_raw[l - 1],
                      plan.acts, l - 1)
            if extra_act_grads is not None and extra_act_grads[l - 1] is not None:
                da = da + extra_act_grads[l - 1]
            dh = da * (cache.pre_acts[l - 1] > 0.0)
    return ParamSet(grads)


def kurtosis(w: np.ndarray) -> float:
    """Fourth standardized moment E[((w - mean) / std)^4], population std."""
    w = np.asarray(w, dtype=np.float64).ravel()
    if w.size < 2:
        raise DegenerateTensorError("kurtosis needs at least 2 elements")
    mu = w.mean()
    var = np.mean((w - mu) ** 2)
    if var <= 0.0:
        raise DegenerateTensorError("kurtosis undefined for a constant tensor")
    return float(np.mean((w - mu) ** 4) / var ** 2)


def kurtosis_gradient(w: np.ndarray) -> np.ndarray:
    """Analytic d kurtosis / dw, chaining through mean and std.

    With c = w - mean, m3 = mean(c^3), K = mean(c^4)/var^2:
    dK/dw_j = 4/(n*var^2) * (c_j^3 - m3 - K*var*c_j).
    """
    w = np.asarray(w, dtype=np.float64)
    flat = w.ravel()
    n = flat.size
    if n < 2:
        raise DegenerateTensorError("kurtosis needs at least 2 elements")
    c = flat - flat.mean()
    var = np.mean(c * c)
    if var <= 0.0:
        raise DegenerateTensorError("kurtosis undefined for a constant tensor")
    m3 = np.mean(c ** 3)
    k = np.mean(c ** 4) / var ** 2
    grad = (4.0 / (n * var ** 2)) * (c ** 3 - m3 - k * var * c)
    return grad.reshape(w.shape)


def _kurtosis_with_gradient(t: np.ndarray) -> tuple[float, np.ndarray]:
    """``kurtosis(t)`` and ``kurtosis_gradient(t)``, bit for bit, from one
    pass that computes c, c^3 and c^4 once."""
    flat = np.asarray(t, dtype=np.float64).ravel()
    n = flat.size
    if n < 2:
        raise DegenerateTensorError("kurtosis needs at least 2 elements")
    c = flat - flat.mean()
    var = np.mean(c * c)
    if var <= 0.0:
        raise DegenerateTensorError("kurtosis undefined for a constant tensor")
    c3 = c ** 3
    k = np.mean(c ** 4) / var ** 2
    grad = (4.0 / (n * var ** 2)) * (c3 - np.mean(c3) - k * var * c)
    return float(k), grad.reshape(np.shape(t))


def kure_terms(params: ParamSet, k_tau: float) -> tuple[float, ParamSet]:
    """``kure_loss`` and ``kure_gradient`` from one pass over the weights."""
    m = len(params.layers)
    penalties, grads = [], []
    for w, b in params.layers:
        k, dk = _kurtosis_with_gradient(w)
        penalties.append((k - k_tau) ** 2)
        grads.append(((2.0 * (k - k_tau) / m) * dk, np.zeros_like(b)))
    return float(np.mean(penalties)), ParamSet(grads)


def kure_loss(params: ParamSet, k_tau: float) -> float:
    """Mean over weight tensors of |kurtosis(W) - k_tau|^2 (biases excluded)."""
    return kure_terms(params, k_tau)[0]


def kure_gradient(params: ParamSet, k_tau: float) -> ParamSet:
    """Analytic gradient of kure_loss; bias slots are zero."""
    return kure_terms(params, k_tau)[1]


def act_kure_terms(cache: ForwardCache, k_tau: float
                   ) -> tuple[float, list[np.ndarray]]:
    """Kurtosis regularizer on post-ReLU activation batches.

    Returns the loss term and per-activation gradients suitable for
    ``backward(cache, extra_act_grads=...)`` (scale both by the regularizer
    weight before use).
    """
    if not cache.relu_raw:
        raise DegenerateTensorError("network has no hidden activations")
    m = len(cache.relu_raw)
    loss = 0.0
    grads = []
    for r in cache.relu_raw:
        k, dk = _kurtosis_with_gradient(r)
        loss += (k - k_tau) ** 2 / m
        grads.append((2.0 * (k - k_tau) / m) * dk)
    return loss, grads


def predict_logits(params: ParamSet, inputs: np.ndarray,
                   act_specs: list[QuantSpec | None] | None = None) -> np.ndarray:
    """Forward pass to logits only (used by evaluation)."""
    a = np.asarray(inputs, dtype=np.float64)
    n_layers = params.num_layers
    for l, (w, b) in enumerate(params.layers):
        h = matmul(a, w) + b
        if l < n_layers - 1:
            a = _apply(np.maximum(h, 0.0), act_specs, l)
    return h


def mean_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    loss, _ = _softmax_ce(logits, np.asarray(labels, dtype=np.int64))
    return loss

