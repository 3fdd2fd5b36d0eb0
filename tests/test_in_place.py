"""The in-place forms: the quantizer, the blocked eval forward, the
aggregate, the server step and the data build equal the bits of the
allocating forms kept in ``helpers`` (and the eval forward those of one
unblocked pass), inputs are left alone unless given as ``out``, and the
eval forward, the round loop and the data build keep their memory bounds."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from fedquant import mlp
from fedquant.data import FederatedDataset, dirichlet_partition, gen_synthetic
from fedquant.errors import DivergedError
from fedquant.federation import FedConfig, ServerState, aggregate, run, server_step
from fedquant.mlp import (BLOCK_VALUES, ParamSet, QuantPlan, init_params,
                          predict_logits)
from fedquant.quantize import QuantSpec, make_spec, quantize, round_half_away
from fedquant.rng import Purpose, RngStream
from fedquant.strategies import ClientUpdate, StrategyConfig
from helpers import (gen_synthetic_oracle, predict_logits_oracle, quantize_oracle,
                     quantized_copy_oracle, round_half_away_oracle,
                     server_step_oracle, traced_peak)


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
    # the last tensor holds over 2**17 elements, a 1 MiB rounding temporary
    for step, size in ((0.25, 0), (0.37, 0), (3.0, 0), (0.25, 1 << 17)):
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


def _plans(widths: list[int], bits: int = 4) -> dict[str, QuantPlan]:
    """A weight-only, an activation-only and a weight-and-activation plan."""
    w = [make_spec(0.5, bits, signed=True)] * (len(widths) - 1)
    a = [make_spec(2.0 + l, bits, signed=False) for l in range(len(widths) - 2)]
    return {"W": QuantPlan(w, []), "A": QuantPlan([], a), "WA": QuantPlan(w, a)}


def _counting_matmul(monkeypatch) -> list:
    calls = []
    real = mlp.matmul

    def matmul(a, b):
        calls.append(len(a))
        return real(a, b)

    monkeypatch.setattr(mlp, "matmul", matmul)
    return calls


@pytest.mark.parametrize("rows, blocks41", [(8, [7, 7, 7, 7, 7, 6]),
                                             (1, [3] + [2] * 19)])
def test_blocked_eval_forward_matches_the_oracle(monkeypatch, rows, blocks41):
    """With a block of 8 rows of the 16-wide layer and no product-size
    floor, 41 rows run as six blocks (five of 7 rows, a final one of 6);
    with a block of one row they run as 20 blocks of two or three, as a
    one-row product takes another BLAS path. One row runs as one block.
    Every split equals the allocating forward's bits."""
    monkeypatch.setattr(mlp, "BLOCK_VALUES", rows * 16)
    monkeypatch.setattr(mlp, "SMALL_PRODUCT", 0)
    calls = _counting_matmul(monkeypatch)
    params = init_params([6, 16, 12, 5], RngStream(11))
    inputs = RngStream(12).normal((41, 6)) * 2.0
    for n, blocks in ((41, blocks41), (1, [1])):
        for name, plan in _plans(params.widths).items():
            calls.clear()
            got = predict_logits(params, inputs[:n], plan)
            want = predict_logits_oracle(quantized_copy_oracle(params, plan.weights),
                                         inputs[:n], plan.acts)
            assert got.tobytes() == want.tobytes(), (n, name)
            assert calls == [size for size in blocks for _ in range(3)], (n, name)


def test_no_block_is_a_small_product(monkeypatch):
    """A block whose product with some layer takes at most ``SMALL_PRODUCT``
    multiply-adds is never split off: the 41 rows above run as one block."""
    monkeypatch.setattr(mlp, "BLOCK_VALUES", 8 * 16)
    calls = _counting_matmul(monkeypatch)
    params = init_params([6, 16, 12, 5], RngStream(11))
    predict_logits(params, RngStream(12).normal((41, 6)))
    assert calls == [41, 41, 41]


@pytest.mark.parametrize("classes", [10, 2])
def test_blocked_eval_forward_equals_one_unblocked_pass(monkeypatch, classes):
    """On 5000 rows of a 32-256-256 model the blocks hold 1000 rows, or
    2500 for a two-class head, whose 1000-row product with the last layer
    would take 512,000 multiply-adds; either way the logits are those of
    one 5000-row pass, bit for bit, whatever the plan."""
    params = init_params([32, 256, 256, classes], RngStream(5))
    inputs = RngStream(6).normal((5000, 32))
    calls = _counting_matmul(monkeypatch)
    for name, plan in _plans(params.widths).items():
        calls.clear()
        got = predict_logits(params, inputs, plan)
        assert set(calls) == {1000 if classes == 10 else 2500}
        with monkeypatch.context() as m:
            m.setattr(mlp, "BLOCK_VALUES", 5000 * 256)
            calls.clear()
            want = predict_logits(params, inputs, plan)
            assert calls == [5000] * 3
        assert got.tobytes() == want.tobytes(), name


def test_eval_forward_holds_two_activations():
    """On a 5000-row 32-256-256-10 model with 4-bit activation grids the
    eval forward runs five blocks of 1000 rows and peaks at two block
    activations (2 x 0.98 ``BLOCK_VALUES``), the quantized weights, the
    logits and a boolean mask or the block-sized ``np.copysign`` temporary
    of ``round_half_away``: 2.23 ``BLOCK_VALUES`` of float64, or 2.52 with
    4-bit weight grids. The unblocked pass peaked at 2.13 and 2.18 full
    hidden activations (10.4 and 10.7 ``BLOCK_VALUES``), the allocating
    form at 6.00."""
    params = init_params([32, 256, 256, 10], RngStream(5))
    inputs = RngStream(6).normal((5000, 32))
    acts = [make_spec(2.0, 4, signed=False), make_spec(3.0, 4, signed=False)]
    for weights in ([], [make_spec(0.5, 4, signed=True)] * 3):
        peak = traced_peak(predict_logits, params, inputs, QuantPlan(weights, acts))
        assert peak <= 2.75 * BLOCK_VALUES * 8, (len(weights), peak)


# both zeros, subnormals and magnitudes whose sums and squares overflow
VALUES = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from([0.0, -0.0, 5e-324, -5e-324, -1e-310,
                                    2.2250738585072014e-308, 1e300, -1e300]))


@st.composite
def server_cases(draw):
    """A one-layer state with drawn parameters and Adam moments, a drawn
    aggregated delta and a drawn SGD or Adam config."""
    n = draw(st.integers(1, 6))
    vec = lambda size: draw(arrays(np.float64, size, elements=VALUES))  # noqa: E731
    params = ParamSet([(vec(n).reshape(1, n), vec(n))])
    opt = draw(st.sampled_from(["sgd", "adam"]))
    cfg = FedConfig(total_rounds=1, num_clients=1, clients_per_round=1,
                    eta_s=draw(st.sampled_from([1e-2, 1.0, 3.7])),
                    server_opt=opt,
                    adam_beta1=draw(st.sampled_from([0.0, 0.9])),
                    adam_beta2=draw(st.sampled_from([0.0, 0.99, 0.999])),
                    adam_eps=draw(st.sampled_from([1e-8, 1e-3])))
    adam = opt == "adam"
    state = ServerState(round_idx=draw(st.integers(0, 60)), params=params,
                        adam_m=vec(2 * n) if adam else None,
                        adam_v=vec(2 * n) if adam else None)
    return state, vec(2 * n), cfg


def _step_bytes(step, state, delta, cfg):
    """The new parameters and moments by bytes, or None if the step diverged
    (as overflowing squares or sums may make it)."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            new = step(state, delta, cfg)
    except DivergedError:
        return None
    assert new.round_idx == state.round_idx + 1
    return [None if a is None else a.tobytes()
            for a in (new.params.vec, new.adam_m, new.adam_v)]


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(case=server_cases())
def test_server_step_matches_the_oracle(case):
    """The in-place SGD and Adam steps write the oracle's bytes, or both
    diverge, and leave the state and the delta as they were."""
    state, delta, cfg = case
    inputs = [a for a in (state.params.vec, state.adam_m, state.adam_v, delta)
              if a is not None]
    before = [a.tobytes() for a in inputs]
    assert (_step_bytes(server_step, state, delta, cfg)
            == _step_bytes(server_step_oracle, state, delta, cfg))
    assert [a.tobytes() for a in inputs] == before


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(deltas=st.integers(1, 6).flatmap(lambda n: st.lists(
    arrays(np.float64, n, elements=VALUES), min_size=1, max_size=5)))
def test_aggregate_matches_the_allocating_mean(deltas):
    """The sum in client-id order divided in place equals a new quotient."""
    before = [d.tobytes() for d in deltas]
    want = np.zeros(deltas[0].shape)
    with np.errstate(over="ignore", invalid="ignore"):
        for d in deltas:
            want += d
        ups = [ClientUpdate(i, d, [0.0])
               for i, d in reversed(list(enumerate(deltas)))]
        assert aggregate(ups).tobytes() == (want / len(deltas)).tobytes()
    assert [d.tobytes() for d in deltas] == before


@pytest.mark.parametrize("classes, dim, per_class, sep", [
    (2, 2, 5, 0.0), (3, 8, 13, 2.0), (4, 5, 26, 3.0), (10, 32, 50, 2.7)])
def test_gen_synthetic_matches_the_list_build(classes, dim, per_class, sep):
    got = gen_synthetic(classes, dim, per_class, sep, RngStream(per_class))
    want = gen_synthetic_oracle(classes, dim, per_class, sep, RngStream(per_class))
    for g, w in zip(got, want):
        assert g.inputs.tobytes() == w.inputs.tobytes()
        assert g.labels.tobytes() == w.labels.tobytes()
        assert g.num_classes == w.num_classes


def test_round_loop_holds_one_round_of_updates():
    """Three serial rounds of a 32-256-256-10 apqn model with Adam, ten
    clients a round and an evaluation in the last, peak at 18.2 parameter
    vectors above the built data: the state's three, the round's ten
    deltas, their mean and the server step's four. Keeping the previous
    round's updates alive through the next round peaked at 30.0."""
    root = RngStream(0)
    train, val = gen_synthetic(10, 32, 50, 3.0, root.child(Purpose.DATA))
    assignment = dirichlet_partition(train.labels, 20, 1.0,
                                     root.child(Purpose.PARTITION))
    data = FederatedDataset(base=train, assignment=assignment, holdout=val)
    cfg = FedConfig(total_rounds=3, num_clients=20, clients_per_round=10,
                    eta_s=0.01, eta_c=0.1, local_steps=2, batch_size=20,
                    server_opt="adam", eval_every=3)
    strat = StrategyConfig(kind="apqn", train_bits=4, quantize_acts=True)
    peak = traced_peak(run, cfg, strat, data, (256, 256))
    assert peak < 20 * 76_810 * 8, peak / (76_810 * 8)


def test_data_build_holds_one_class_block():
    """Ten classes of 2500 samples in 32 dims peak at the output (inputs and
    labels of both splits) plus 4.7 class blocks of draws; building per
    class lists and joining them peaked at the output plus 11.3."""
    classes, per_class, dim = 10, 2500, 32
    block = per_class * dim * 8
    output = classes * per_class * (dim + 1) * 8
    peak = traced_peak(gen_synthetic, classes, dim, per_class, 2.7, RngStream(1))
    assert peak < output + 5 * block, (peak - output) / block
