"""Checks shared by the test modules; the library does not need them.

The ``*_oracle`` functions keep earlier, plainer forms of library code that
was since rewritten for speed; the tests require the rewrites to match them
bit for bit.
"""

import json

import numpy as np

from fedquant.errors import DegenerateTensorError, NumericError, ShapeError
from fedquant.federation import (CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                                 _tables_to_json, config_hash)
from fedquant.mlp import Batch, ParamSet
from fedquant.quantize import RANGE_CANDIDATES, QuantSpec, StepTable, make_spec
from fedquant.rng import _GOLDEN, _MIX1, _MIX2


def check_gradients(params: ParamSet, loss_fn, analytic: ParamSet,
                    step: float = 1e-5, floor: float = 1e-4) -> float:
    """Max relative error of analytic gradients vs central finite differences.

    ``loss_fn`` maps a ParamSet to a scalar loss and must be deterministic.
    The denominator is floored so near-zero components are compared at an
    absolute tolerance of floor * rel instead of blowing up the ratio.
    """
    flat = params.flatten()
    ana = analytic.flatten()
    num = np.empty_like(ana)
    for j in range(flat.size):
        bumped = flat.copy(); bumped[j] = flat[j] + step
        up = loss_fn(params.unflatten(bumped))
        bumped[j] = flat[j] - step
        down = loss_fn(params.unflatten(bumped))
        num[j] = (up - down) / (2.0 * step)
    denom = np.maximum(np.abs(ana) + np.abs(num), floor)
    return float(np.max(np.abs(ana - num) / denom))


def steps_consistent(table: StepTable, rel_tol: float = 1e-12) -> bool:
    """True when every pair satisfies step_a*(2^a-1) == step_b*(2^b-1)."""
    spans = [s * (2 ** b - 1) for b, s in sorted(table.steps.items())]
    if len(spans) < 2:
        return True
    ref = spans[0]
    return all(abs(s - ref) <= rel_tol * abs(ref) for s in spans[1:])


def range_search_oracle(w: np.ndarray, bits: int, signed: bool = True,
                        num_candidates: int = RANGE_CANDIDATES):
    """The MSE range search as one ``quantize`` call per candidate range.

    Returns the chosen spec (strict ``<`` over j = num_candidates..1, so ties
    keep the larger range) and the list of candidate steps and MSEs in that
    order; an all-zero tensor gives the unit default range and no candidates.
    """
    w = np.asarray(w, dtype=np.float64)
    absmax = float(np.max(np.abs(w)))
    if absmax == 0.0:
        return make_spec(1.0, bits, signed), [], []
    best_spec, best_mse, steps, mses = None, np.inf, [], []
    for j in range(num_candidates, 0, -1):
        spec = make_spec(absmax * (j / num_candidates), bits, signed)
        err = quantize_oracle(w, spec) - w
        mse = float(np.mean(err * err))
        steps.append(spec.step)
        mses.append(mse)
        if mse < best_mse:
            best_mse = mse
            best_spec = spec
    return best_spec, steps, mses


def raw_draws_oracle(key: int, counter: int, n: int) -> np.ndarray:
    """``RngStream._raw``: splitmix64 of key + i * golden for counters
    counter + 1 .. counter + n, as one uint64 numpy pass."""
    state = np.arange(counter + 1, counter + n + 1, dtype=np.uint64)
    state *= np.uint64(_GOLDEN)
    state += np.uint64(key)
    t = np.empty_like(state)
    state ^= np.right_shift(state, np.uint64(30), out=t)
    state *= np.uint64(_MIX1)
    state ^= np.right_shift(state, np.uint64(27), out=t)
    state *= np.uint64(_MIX2)
    state ^= np.right_shift(state, np.uint64(31), out=t)
    return state


def uniform_oracle(key: int, counter: int, shape: tuple[int, ...]) -> np.ndarray:
    raw = raw_draws_oracle(key, counter, int(np.prod(shape)) if shape else 1)
    raw >>= np.uint64(11)
    return (raw * (2.0 ** -53)).reshape(shape)


def integers_oracle(key: int, counter: int, upper: int, n: int) -> np.ndarray:
    return (raw_draws_oracle(key, counter, n) % np.uint64(upper)).astype(np.int64)


def round_half_away_oracle(x: np.ndarray) -> np.ndarray:
    """``round_half_away`` before it took ``out=``: floor(|x| + 0.5) times
    ``np.sign(x)``, in a new array."""
    k = np.abs(x)
    k += 0.5
    np.floor(k, out=k)
    k *= np.sign(x)
    return k


def quantize_oracle(w: np.ndarray, spec: QuantSpec) -> np.ndarray:
    """``quantize`` before it took ``out=``: step * clip(round(w / step),
    lo, hi), each stage a new array."""
    w = np.asarray(w, dtype=np.float64)
    if not np.all(np.isfinite(w)):
        raise NumericError("cannot quantize non-finite values")
    k = np.clip(round_half_away_oracle(w / spec.step), spec.grid_min, spec.grid_max)
    return spec.step * k


def predict_logits_oracle(params: ParamSet, inputs: np.ndarray,
                          act_specs: list[QuantSpec | None] | None = None
                          ) -> np.ndarray:
    """``mlp.predict_logits`` before it worked in place: a new array for the
    product, the bias sum, the ReLU and the activation grid of each layer."""
    a = np.asarray(inputs, dtype=np.float64)
    for l, (w, b) in enumerate(params.layers):
        h = a @ w + b
        if l < params.num_layers - 1:
            r = np.maximum(h, 0.0)
            spec = act_specs[l] if act_specs else None
            a = r if spec is None else quantize_oracle(r, spec)
    return h


def ste_mask_oracle(w: np.ndarray, spec: QuantSpec) -> np.ndarray:
    ratio = np.asarray(w, dtype=np.float64) / spec.step
    return (ratio >= spec.grid_min) & (ratio <= spec.grid_max)


def client_batches_oracle(data, indices: np.ndarray, steps: int,
                          batch_size: int, rng) -> list[Batch]:
    """``federation.client_batches`` with one gather per step."""
    perm = indices[rng.permutation(indices.size)]
    batches = []
    take = min(batch_size, perm.size)
    for k in range(steps):
        sel = np.take(perm, np.arange(k * take, (k + 1) * take), mode="wrap")
        batches.append(Batch(data.inputs[sel], data.labels[sel]))
    return batches


def checkpoint_oracle(path: str, state, config: dict) -> None:
    """``federation.save_checkpoint`` streaming through ``json.dump``."""
    doc = {
        "magic": CHECKPOINT_MAGIC,
        "version": CHECKPOINT_VERSION,
        "round": state.round_idx,
        "config_hash": config_hash(config),
        "config": config,
        "widths": state.params.widths,
        "layers": [{"weight": w.tolist(), "bias": b.tolist()}
                   for w, b in state.params.layers],
        "adam_m": None if state.adam_m is None else state.adam_m.tolist(),
        "adam_v": None if state.adam_v is None else state.adam_v.tolist(),
        "step_tables": _tables_to_json(state.step_tables),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def flatten_oracle(params: ParamSet) -> np.ndarray:
    """``ParamSet.flatten`` as a concatenation of each layer's raveled weight
    and bias, in layer order."""
    return np.concatenate([np.ravel(t) for pair in params.layers for t in pair])


def unflatten_oracle(params: ParamSet, vec: np.ndarray
                     ) -> list[tuple[np.ndarray, np.ndarray]]:
    """``ParamSet.unflatten`` as per-layer copies of the vector's slices."""
    out, pos = [], 0
    for w, b in params.layers:
        out.append((vec[pos:pos + w.size].reshape(w.shape).copy(),
                    vec[pos + w.size:pos + w.size + b.size].copy()))
        pos += w.size + b.size
    return out


def add_scaled_oracle(params: ParamSet, other: ParamSet, scale: float) -> None:
    """``ParamSet.add_scaled`` as one in-place update per layer tensor."""
    for (w, b), (ow, ob) in zip(params.layers, other.layers):
        w += scale * ow
        b += scale * ob


def kurtosis(w: np.ndarray) -> float:
    """Fourth standardized moment E[((w - mean) / std)^4], population std."""
    w = np.asarray(w, dtype=np.float64).ravel()
    if w.size < 2:
        raise ShapeError("kurtosis needs at least 2 elements")
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
        raise ShapeError("kurtosis needs at least 2 elements")
    c = flat - flat.mean()
    var = np.mean(c * c)
    if var <= 0.0:
        raise DegenerateTensorError("kurtosis undefined for a constant tensor")
    m3 = np.mean(c ** 3)
    k = np.mean(c ** 4) / var ** 2
    grad = (4.0 / (n * var ** 2)) * (c ** 3 - m3 - k * var * c)
    return grad.reshape(w.shape)


def kure_loss(params: ParamSet, k_tau: float) -> float:
    """``mlp.kure_terms``'s loss on the weights: the mean over them of
    (kurtosis(W) - k_tau)^2, biases excluded."""
    return float(np.mean([(kurtosis(w) - k_tau) ** 2 for w in params.weights()]))


def kure_gradient(params: ParamSet, k_tau: float) -> ParamSet:
    """``mlp.kure_terms``'s gradient on the weight tensors, analytic, in a
    ParamSet with zero bias slots."""
    m = params.num_layers
    return ParamSet([((2.0 * (kurtosis(w) - k_tau) / m) * kurtosis_gradient(w),
                      np.zeros_like(b)) for w, b in params.layers])


def act_kure_oracle(acts: list[np.ndarray], k_tau: float
                    ) -> tuple[float, list[np.ndarray]]:
    """The activation penalty before it shared ``mlp.kure_terms``: the sum
    of (kurtosis(r) - k_tau)^2 / m, left to right over the m activations,
    and the gradients (2 * (kurtosis(r) - k_tau) / m) * dK/dr."""
    m = len(acts)
    loss, grads = 0.0, []
    for r in acts:
        k = kurtosis(r)
        loss += (k - k_tau) ** 2 / m
        grads.append((2.0 * (k - k_tau) / m) * kurtosis_gradient(r))
    return loss, grads
