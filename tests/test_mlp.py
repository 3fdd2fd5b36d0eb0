"""The checked matmul, the flat parameter buffer, forward/backward
correctness, the kurtosis oracles and the regularizer."""

import math

import numpy as np
import pytest

from fedquant.errors import (DegenerateTensorError, NumericError, ShapeError,
                             UsageError)
from fedquant.mlp import (Batch, ParamSet, QuantPlan, _softmax_ce, backward,
                          forward, init_params, kure_terms, matmul,
                          predict_logits)
from fedquant.quantize import QuantSpec, make_spec, quantize
from fedquant.rng import RngStream
from fedquant.strategies import ClientTask, StrategyConfig, local_train
from helpers import (act_kure_oracle, add_scaled_oracle, check_gradients,
                     flatten_oracle, kure_gradient, kure_loss, kurtosis,
                     kurtosis_gradient, unflatten_oracle)


def small_net(widths, seed=0):
    return init_params(list(widths), RngStream(seed))


def random_batch(n, d, classes, seed=1):
    rng = RngStream(seed)
    x = rng.normal((n, d))
    y = rng.integers(classes, size=n)
    return Batch(x, y)


def naive_matmul(a, b):
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


class TestMatmul:
    def test_identity(self):
        eye = np.eye(2)
        other = np.array([[3.0, 4.0], [5.0, 6.0]])
        assert np.array_equal(matmul(eye, other), other)

    def test_inner_product(self):
        out = matmul(np.array([[1.0, 2.0]]), np.array([[3.0], [4.0]]))
        assert out.shape == (1, 1)
        assert out[0, 0] == 11.0

    def test_matches_triple_loop_oracle(self):
        rng = RngStream(2024)
        a = rng.normal((5, 7))
        b = rng.normal((7, 3))
        got = matmul(a, b)
        want = naive_matmul(a, b)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_matches_oracle_up_to_64(self):
        rng = RngStream(5)
        for m, k, n in [(16, 16, 16), (64, 64, 64), (3, 64, 5)]:
            a = rng.normal((m, k))
            b = rng.normal((k, n))
            got = matmul(a, b)
            want = naive_matmul(a, b)
            rel = np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300)
            assert rel < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            matmul(np.ones((2, 3)), np.ones((2, 3)))

    def test_rank_checked(self):
        with pytest.raises(ShapeError):
            matmul(np.ones(3), np.ones((3, 2)))

    def test_inputs_unmodified(self):
        a = np.ones((2, 2))
        b = np.ones((2, 2))
        a_copy, b_copy = a.copy(), b.copy()
        matmul(a, b)
        assert np.array_equal(a, a_copy) and np.array_equal(b, b_copy)

    def test_check_finite(self):
        with pytest.raises(NumericError):
            matmul(np.array([[1e200]]), np.array([[1e200]]))
        with pytest.raises(NumericError):
            matmul(np.array([[1.0, np.nan]]), np.ones((2, 1)))


BUFFER_SHAPES = {"1-layer": [5, 3], "2-layer": [5, 7, 3],
                 "3-layer": [4, 6, 5, 2], "wide": [32, 256, 256, 10]}


class TestParamSet:
    def test_flatten_concatenates_row_major(self):
        params = ParamSet([(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([5.0, 6.0]))])
        assert np.array_equal(params.flatten(),
                              np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]))

    @pytest.mark.parametrize("widths", list(BUFFER_SHAPES.values()),
                             ids=list(BUFFER_SHAPES))
    def test_buffer_matches_the_per_layer_oracles(self, widths):
        params = small_net(widths, seed=2)
        assert params.flatten().tobytes() == flatten_oracle(params).tobytes()
        vec = RngStream(3).normal(params.dim)
        for (w, b), (ow, ob) in zip(params.unflatten(vec).layers,
                                    unflatten_oracle(params, vec)):
            assert w.shape == ow.shape and b.shape == ob.shape
            assert w.tobytes() == ow.tobytes() and b.tobytes() == ob.tobytes()
        other = small_net(widths, seed=4)
        got, want = params.copy(), params.copy()
        got.add_scaled(other, -0.37)
        add_scaled_oracle(want, other, -0.37)
        assert got.flatten().tobytes() == flatten_oracle(want).tobytes()

    @pytest.mark.parametrize("widths", list(BUFFER_SHAPES.values()),
                             ids=list(BUFFER_SHAPES))
    def test_every_layer_is_a_view_into_the_vector(self, widths):
        params = small_net(widths, seed=5)
        _, cache = forward(params, random_batch(6, widths[0], widths[-1]))
        for made in (params, params.copy(), params.unflatten(np.zeros(params.dim)),
                     ParamSet(params.layers), backward(cache)):
            assert made.flatten().dtype == np.float64
            assert made.flatten().shape == (params.dim,)
            assert all(np.shares_memory(t, made.flatten())
                       for pair in made.layers for t in pair)

    def test_unflatten_wraps_the_vector_without_copying(self):
        params = small_net([4, 5, 3])
        vec = np.zeros(params.dim)
        wrapped = params.unflatten(vec)
        assert wrapped.flatten() is vec
        wrapped.layers[1][1][:] = 7.0
        assert np.count_nonzero(vec) == 3 and vec[-1] == 7.0

    def test_construction_copies_the_callers_arrays(self):
        w, b = np.ones((3, 2)), np.zeros(2)
        params = ParamSet([(w, b)])
        assert not np.shares_memory(params.flatten(), w)
        assert not np.shares_memory(params.flatten(), b)
        params.add_scaled(params.copy(), 1.0)
        assert np.all(w == 1.0) and np.all(b == 0.0)
        assert np.all(params.layers[0][0] == 2.0)

    def test_flatten_unflatten_roundtrip(self):
        params = small_net([5, 7, 3])
        flat = params.flatten()
        assert flat.size == params.dim == 5 * 7 + 7 + 7 * 3 + 3
        back = params.unflatten(flat)
        for (w1, b1), (w2, b2) in zip(params.layers, back.layers):
            assert np.array_equal(w1, w2) and np.array_equal(b1, b2)

    def test_unflatten_checks_length(self):
        params = small_net([4, 4, 2])
        for bad in (np.zeros(params.dim + 1), np.zeros(params.dim - 1),
                    np.zeros((1, params.dim))):
            with pytest.raises(ShapeError):
                params.unflatten(bad)

    def test_layer_chaining_enforced(self):
        with pytest.raises(ShapeError):
            ParamSet([])
        with pytest.raises(ShapeError):
            ParamSet([(np.zeros((3, 4)), np.zeros(4)),
                      (np.zeros((5, 2)), np.zeros(2))])


class TestForward:
    def test_uniform_logits_give_log_c(self):
        params = small_net([6, 8, 10])
        w_last, b_last = params.layers[-1]
        w_last[:] = 0.0
        b_last[:] = 0.0
        batch = random_batch(32, 6, 10)
        loss, _ = forward(params, batch)
        assert abs(loss - math.log(10)) < 1e-9

    def test_identity_quantizer_is_bitwise_plain(self):
        params = small_net([5, 9, 4])
        batch = random_batch(16, 5, 4)
        plain, plain_cache = forward(params, batch)
        plan = QuantPlan(weights=[None] * params.num_layers,
                         acts=[None] * (params.num_layers - 1))
        quantized, cache = forward(params, batch, plan)
        assert plain == quantized
        assert np.array_equal(backward(cache).flatten(),
                              backward(plain_cache).flatten())

    def test_qat_forward_equals_prequantized_plain_forward(self):
        params = small_net([5, 9, 4], seed=3)
        batch = random_batch(16, 5, 4)
        specs = [make_spec(float(np.max(np.abs(w))), 2) for w, _ in params.layers]
        plan = QuantPlan(weights=specs)
        qat_loss, _ = forward(params, batch, plan)
        snapped = ParamSet([(quantize(w, s), b.copy())
                            for (w, b), s in zip(params.layers, specs)])
        plain_loss, _ = forward(snapped, batch)
        assert qat_loss == plain_loss

    def test_shape_mismatch_raises(self):
        params = small_net([5, 9, 4])
        with pytest.raises(ShapeError):
            forward(params, random_batch(4, 6, 4))

    def test_cache_single_use(self):
        params = small_net([4, 6, 3])
        _, cache = forward(params, random_batch(8, 4, 3))
        backward(cache)
        with pytest.raises(UsageError):
            backward(cache)


class TestGradients:
    """Analytic gradients against central finite differences (step 1e-5)."""

    def test_plain_backward_matches_fd(self):
        params = small_net([8, 14, 4], seed=11)  # 186 parameters
        batch = random_batch(24, 8, 4, seed=12)
        _, cache = forward(params, batch)
        grads = backward(cache)
        err = check_gradients(params, lambda p: forward(p, batch)[0], grads)
        assert err < 1e-6

    def test_apqn_frozen_noise_matches_fd(self):
        params = small_net([6, 10, 3], seed=21)
        batch = random_batch(16, 6, 3, seed=22)
        plan = QuantPlan(weights=[0.3] * params.num_layers)

        def loss_fn(p):
            # re-deriving the stream freezes the sampled noise across calls
            return forward(p, batch, plan, rng=RngStream(77, (5,)))[0]

        _, cache = forward(params, batch, plan, rng=RngStream(77, (5,)))
        grads = backward(cache)
        assert check_gradients(params, loss_fn, grads) < 1e-6

    def test_qat_gradient_equals_plain_gradient_at_snapped_weights(self):
        params = small_net([5, 8, 3], seed=31)
        step = 0.05
        # park every weight strictly inside the range, >= step/4 from ties
        for w, _ in params.layers:
            k = np.clip(np.round(w / step), -6, 6)
            w[:] = (k + 0.3) * step
        specs = [QuantSpec(bits=4, step=step) for _ in params.layers]
        batch = random_batch(16, 5, 3, seed=32)
        plan = QuantPlan(weights=specs)
        _, cache = forward(params, batch, plan)
        got = backward(cache)
        snapped = ParamSet([(quantize(w, s), b.copy())
                            for (w, b), s in zip(params.layers, specs)])
        _, plain_cache = forward(snapped, batch)
        want = backward(plain_cache)
        assert np.array_equal(got.flatten(), want.flatten())

    def test_act_quant_ste_matches_fd_away_from_kinks(self):
        params = small_net([5, 12, 3], seed=41)
        batch = random_batch(16, 5, 3, seed=42)
        act_spec = make_spec(8.0, 8, signed=False)
        plan = QuantPlan(acts=[act_spec])
        _, cache = forward(params, batch, plan)
        grads = backward(cache)
        # the quantizer is piecewise constant, so FD at 1e-5 sees a flat or
        # linear surrogate almost everywhere; the STE direction is checked
        # loosely against the unquantized-activation gradient instead
        _, plain_cache = forward(params, batch)
        plain = backward(plain_cache)
        cos = (grads.flatten() @ plain.flatten()) / (
            np.linalg.norm(grads.flatten()) * np.linalg.norm(plain.flatten()))
        assert cos > 0.95


class TestKurtosis:
    def test_uniform_monte_carlo(self):
        w = RngStream(101).uniform(10 ** 6) * 2.0 - 1.0
        assert abs(kurtosis(w) - 1.8) < 0.05

    def test_gaussian_monte_carlo(self):
        w = RngStream(102).normal(10 ** 6)
        assert abs(kurtosis(w) - 3.0) < 0.05

    def test_two_point_tensor(self):
        assert kurtosis(np.array([-1.0, 1.0])) == 1.0

    def test_constant_tensor_rejected(self):
        with pytest.raises(DegenerateTensorError):
            kurtosis(np.full(10, 3.3))

    def test_gradient_matches_fd(self):
        w = RngStream(103).normal((6, 6))
        grad = kurtosis_gradient(w)
        flat = w.ravel().copy()
        h = 1e-6
        for j in range(flat.size):
            up = flat.copy(); up[j] += h
            dn = flat.copy(); dn[j] -= h
            fd = (kurtosis(up.reshape(6, 6)) - kurtosis(dn.reshape(6, 6))) / (2 * h)
            denom = max(abs(fd) + abs(grad.ravel()[j]), 1e-4)
            assert abs(grad.ravel()[j] - fd) / denom < 1e-5

    def test_gradient_antisymmetric_under_negation(self):
        w = RngStream(104).normal(40)
        assert np.allclose(kurtosis_gradient(-w), -kurtosis_gradient(w), atol=1e-12)


class TestKureRegularizer:
    def test_single_layer_value(self):
        # one weight tensor with kurtosis exactly 3 gives (3 - 1.8)^2 = 1.44
        w = RngStream(105).normal((40, 25))
        k = kurtosis(w)
        loss, _ = kure_terms([w], k_tau=k - 1.2)
        assert loss == pytest.approx((1.2) ** 2, rel=1e-12)

    def test_loss_nonnegative_and_zero_at_target(self):
        params = small_net([6, 8, 4], seed=51)
        assert kure_terms(params.weights(), 1.8)[0] >= 0.0
        w0 = params.layers[0][0]
        loss, grads = kure_terms([w0], kurtosis(w0))
        assert loss == 0.0
        assert len(grads) == 1 and grads[0].shape == w0.shape
        assert np.all(grads[0] == 0.0)

    def test_needs_a_tensor(self):
        with pytest.raises(ShapeError):
            kure_terms([], 1.8)

    def test_gradient_matches_fd(self):
        params = small_net([5, 6, 3], seed=52)
        grads = params.unflatten(np.zeros(params.dim))
        for gw, g in zip(grads.weights(), kure_terms(params.weights(), 1.8)[1]):
            gw += g
        err = check_gradients(params, lambda p: kure_terms(p.weights(), 1.8)[0],
                              grads)
        assert err < 1e-6

    def test_fused_pass_equals_the_oracles_bitwise(self):
        params = small_net([32, 64, 48, 10], seed=54)
        loss, grads = kure_terms(params.weights(), 1.8)
        assert loss == kure_loss(params, 1.8)
        assert [g.tobytes() for g in grads] == \
               [g.tobytes() for g in kure_gradient(params, 1.8).weights()]

    @pytest.mark.parametrize("hidden", [[64], [64, 48], [64, 48, 24]],
                             ids=["1-act", "2-acts", "3-acts"])
    def test_activations_against_the_old_formula(self, hidden):
        """Equal to the old left-to-right ``sum (k - tau)^2 / m`` for one and
        two activations, where dividing by m is exact; from three on, the
        penalty is ``np.mean`` of the per-tensor penalties, the weights' form.
        The gradients equal the old ones at any depth."""
        params = small_net([32, *hidden, 10], seed=54)
        _, cache = forward(params, random_batch(20, 32, 10, seed=55))
        loss, grads = kure_terms(cache.relu_raw, 1.8)
        old_loss, old_grads = act_kure_oracle(cache.relu_raw, 1.8)
        assert [g.tobytes() for g in grads] == [g.tobytes() for g in old_grads]
        if len(hidden) <= 2:
            assert loss == old_loss
        assert loss == float(np.mean([(kurtosis(r) - 1.8) ** 2
                                      for r in cache.relu_raw]))

    def test_kure_step_leaves_bias_gradients_untouched(self):
        """``local_train`` adds the weight penalty's gradients into
        ``backward``'s weight views only: after one step the bias slots of
        the kure delta equal the baseline's bit for bit."""
        params = small_net([5, 6, 4, 3], seed=53)
        batch = random_batch(8, 5, 3, seed=56)
        deltas = []
        for strat in (StrategyConfig(), StrategyConfig(kind="kure", lam=0.5)):
            task = ClientTask(client_id=0, round_idx=0, start_params=params,
                              plan=QuantPlan(), eta_c=0.1, batches=[batch],
                              bits=None, noise_rng=None)
            deltas.append(params.unflatten(local_train(task, strat).delta))
        for (base_w, base_b), (kure_w, kure_b) in zip(*(d.layers for d in deltas)):
            assert base_b.tobytes() == kure_b.tobytes()
            assert not np.array_equal(base_w, kure_w)


class TestActivationKure:
    def test_terms_match_fd(self):
        params = small_net([5, 9, 7, 3], seed=61)
        batch = random_batch(12, 5, 3, seed=62)
        lam = 0.05

        def loss_fn(p):
            loss, cache = forward(p, batch)
            return loss + lam * kure_terms(cache.relu_raw, 1.8)[0]

        _, cache = forward(params, batch)
        _, act_grads = kure_terms(cache.relu_raw, 1.8)
        grads = backward(cache, extra_act_grads=[lam * g for g in act_grads])
        assert check_gradients(params, loss_fn, grads) < 1e-5


class TestPredictLogits:
    def test_matches_forward_pre_softmax(self):
        params = small_net([4, 6, 3], seed=71)
        batch = random_batch(10, 4, 3, seed=72)
        loss, cache = forward(params, batch)
        want_loss, want_probs = _softmax_ce(predict_logits(params, batch.inputs),
                                            batch.labels)
        assert loss == want_loss
        assert cache.probs.tobytes() == want_probs.tobytes()
