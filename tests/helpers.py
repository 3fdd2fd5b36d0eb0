"""Checks shared by the test modules; the library does not need them."""

import numpy as np

from fedquant.mlp import ParamSet
from fedquant.quantize import StepTable, make_spec, quantize


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
                        num_candidates: int = 100):
    """The MSE range search as one ``quantize`` call per candidate range.

    Returns the chosen spec (strict ``<`` over j = num_candidates..1, so ties
    keep the larger range) and the list of candidate steps and MSEs in that
    order; an all-zero tensor gives the unit default range and no candidates.
    """
    w = np.asarray(w, dtype=np.float64)
    absmax = float(np.max(np.abs(w)))
    if absmax == 0.0:
        return make_spec(1.0, bits, signed, default_range=True), [], []
    best_spec, best_mse, steps, mses = None, np.inf, [], []
    for j in range(num_candidates, 0, -1):
        spec = make_spec(absmax * (j / num_candidates), bits, signed)
        err = quantize(w, spec) - w
        mse = float(np.mean(err * err))
        steps.append(spec.step)
        mses.append(mse)
        if mse < best_mse:
            best_mse = mse
            best_spec = spec
    return best_spec, steps, mses
