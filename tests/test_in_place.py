"""The in-place quantizer and eval forward: the bits of the allocating forms
kept in ``helpers``, inputs left alone unless given as ``out``, and the
eval forward's memory bound."""

import tracemalloc

import numpy as np
import pytest

from fedquant.mlp import QuantPlan, init_params, predict_logits
from fedquant.quantize import (_ROUND_BLOCK, QuantSpec, make_spec, quantize,
                               round_half_away)
from fedquant.rng import RngStream
from helpers import (predict_logits_oracle, quantize_oracle,
                     quantized_copy_oracle, round_half_away_oracle)


def probe_values(spec: QuantSpec, rng: RngStream, size: int = 0) -> np.ndarray:
    """A row of both zeros, every half-step tie from below the grid to above
    it and values far beyond it, then rows of random values, more than
    ``size`` elements in all."""
    lo, hi = spec.grid_min, spec.grid_max
    ties = np.arange(lo - 3, hi + 4) - 0.5
    beyond = np.array([lo - 40.0, hi + 40.0, 5.0 * lo - 1.0, 5.0 * hi + 1.0])
    special = np.concatenate([[0.0, -0.0], ties, -ties, beyond]) * spec.step
    rows = 1 + size // special.size
    random = rng.normal((rows, special.size)) * spec.step * (hi - lo) * 0.6
    return np.vstack([special, random])


def call_three_ways(fn, x: np.ndarray, *args) -> list[np.ndarray]:
    """``fn`` with ``out`` None, the input itself and another buffer; each
    call must return its ``out`` and leave ``x`` as it was unless it is
    ``out``."""
    before = x.copy()
    results = [fn(x, *args)]
    assert x.tobytes() == before.tobytes()
    same = x.copy()
    assert fn(same, *args, out=same) is same
    results.append(same)
    other = np.full_like(x, 7.0)
    assert fn(x, *args, out=other) is other
    assert x.tobytes() == before.tobytes()
    results.append(other)
    return results


@pytest.mark.parametrize("bits", [2, 3, 4, 6, 8])
@pytest.mark.parametrize("signed", [True, False])
def test_in_place_forms_match_the_allocating_oracles(bits, signed):
    rng = RngStream(bits, (int(signed),))
    # the last tensor spans three blocks of round_half_away
    for step, size in ((0.25, 0), (0.37, 0), (3.0, 0), (0.25, 2 * _ROUND_BLOCK)):
        spec = QuantSpec(bits=bits, step=step, signed=signed)
        x = probe_values(spec, rng, size)
        want = quantize_oracle(x, spec).tobytes()
        assert [r.tobytes() for r in call_three_ways(quantize, x, spec)] == [want] * 3
        ratio = x / step
        want = round_half_away_oracle(ratio).tobytes()
        assert ([r.tobytes() for r in call_three_ways(round_half_away, ratio)]
                == [want] * 3)

    params = init_params([6, 16, 12, 5], rng.child(1))
    inputs = rng.normal((40, 6))
    inputs[:3] = 0.0
    before = inputs.copy()
    before_params = params.vec.copy()
    grid = make_spec(1.5, bits, signed=False)
    w_grid = make_spec(0.3, bits, signed=True)
    weights = ([], [None, None, None], [w_grid, None, w_grid],
               [None, make_spec(0.05, bits, signed=True), None])
    acts = ([], [None, None], [grid, None], [None, grid],
            [grid, make_spec(0.4, bits, signed=False)])
    for w_specs in weights:
        for a_specs in acts:
            got = predict_logits(params, inputs, QuantPlan(w_specs, a_specs))
            want = predict_logits_oracle(quantized_copy_oracle(params, w_specs),
                                         inputs, a_specs)
            assert got.tobytes() == want.tobytes()
            assert inputs.tobytes() == before.tobytes()
            assert params.vec.tobytes() == before_params.tobytes()


def test_eval_forward_holds_two_activations():
    """On a 5000-row 32-256-256-10 model with 4-bit activation grids the
    eval forward peaks at one hidden layer's input and output plus a
    boolean mask (2.13 hidden activations; 2.18 with 4-bit weight grids,
    which add one quantized weight matrix at a time); the allocating form
    peaked at 6.00 (4.01 without activation grids)."""
    params = init_params([32, 256, 256, 10], RngStream(5))
    inputs = RngStream(6).normal((5000, 32))
    acts = [make_spec(2.0, 4, signed=False), make_spec(3.0, 4, signed=False)]
    for weights in ([], [make_spec(0.5, 4, signed=True)] * 3):
        tracemalloc.start()
        try:
            predict_logits(params, inputs, QuantPlan(weights, acts))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.25 * 5000 * 256 * 8, (len(weights), peak)
