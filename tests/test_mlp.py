"""Forward/backward correctness, kurtosis statistics and the regularizer."""

import math

import numpy as np
import pytest

from fedquant.errors import DegenerateTensorError, ShapeError, UsageError
from fedquant.mlp import (Batch, ParamSet, QuantPlan, act_kure_terms, backward,
                          forward, init_params, kure_gradient, kure_loss,
                          kure_terms, kurtosis, kurtosis_gradient,
                          predict_logits)
from fedquant.quantize import QuantSpec, make_spec, quantize
from fedquant.rng import RngStream
from helpers import check_gradients


def small_net(widths, seed=0):
    return init_params(list(widths), RngStream(seed))


def random_batch(n, d, classes, seed=1):
    rng = RngStream(seed)
    x = rng.normal((n, d))
    y = rng.integers(classes, size=n)
    return Batch(x, y)


class TestParamSet:
    def test_flatten_unflatten_roundtrip(self):
        params = small_net([5, 7, 3])
        flat = params.flatten()
        assert flat.size == params.dim == 5 * 7 + 7 + 7 * 3 + 3
        back = params.unflatten(flat)
        for (w1, b1), (w2, b2) in zip(params.layers, back.layers):
            assert np.array_equal(w1, w2) and np.array_equal(b1, b2)

    def test_unflatten_checks_length(self):
        params = small_net([4, 4, 2])
        with pytest.raises(ShapeError):
            params.unflatten(np.zeros(params.dim + 1))

    def test_layer_chaining_enforced(self):
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
        params = ParamSet([(w, np.zeros(25))])
        assert kure_loss(params, k_tau=k - 1.2) == pytest.approx((1.2) ** 2, rel=1e-12)

    def test_loss_nonnegative_and_zero_at_target(self):
        params = small_net([6, 8, 4], seed=51)
        assert kure_loss(params, 1.8) >= 0.0
        k0 = kurtosis(params.layers[0][0])
        single = ParamSet([params.layers[0]])
        assert kure_loss(single, k0) == 0.0
        grad = kure_gradient(single, k0)
        assert np.all(grad.flatten() == 0.0)

    def test_gradient_matches_fd(self):
        params = small_net([5, 6, 3], seed=52)
        grads = kure_gradient(params, 1.8)
        err = check_gradients(params, lambda p: kure_loss(p, 1.8), grads)
        assert err < 1e-6

    def test_bias_slots_untouched(self):
        params = small_net([5, 6, 3], seed=53)
        grads = kure_gradient(params, 1.8)
        for _, gb in grads.layers:
            assert np.all(gb == 0.0)

    def test_fused_pass_equals_the_oracles_bitwise(self):
        params = small_net([32, 64, 48, 10], seed=54)
        m = params.num_layers
        loss, grads = kure_terms(params, 1.8)
        assert loss == float(np.mean([(kurtosis(w) - 1.8) ** 2
                                      for w in params.weights()]))
        for (gw, _), w in zip(grads.layers, params.weights()):
            want = (2.0 * (kurtosis(w) - 1.8) / m) * kurtosis_gradient(w)
            assert np.array_equal(gw, want)
        _, cache = forward(params, random_batch(20, 32, 10, seed=55))
        loss, act_grads = act_kure_terms(cache, 1.8)
        m = len(cache.relu_raw)
        want_loss = 0.0
        for r, g in zip(cache.relu_raw, act_grads):
            want_loss += (kurtosis(r) - 1.8) ** 2 / m
            assert np.array_equal(
                g, (2.0 * (kurtosis(r) - 1.8) / m) * kurtosis_gradient(r))
        assert loss == want_loss


class TestActivationKure:
    def test_terms_match_fd(self):
        params = small_net([5, 9, 7, 3], seed=61)
        batch = random_batch(12, 5, 3, seed=62)
        lam = 0.05

        def loss_fn(p):
            loss, cache = forward(p, batch)
            reg, _ = act_kure_terms(cache, 1.8)
            return loss + lam * reg

        _, cache = forward(params, batch)
        reg, act_grads = act_kure_terms(cache, 1.8)
        grads = backward(cache, extra_act_grads=[lam * g for g in act_grads])
        assert check_gradients(params, loss_fn, grads) < 1e-5


class TestPredictLogits:
    def test_matches_forward_pre_softmax(self):
        params = small_net([4, 6, 3], seed=71)
        batch = random_batch(10, 4, 3, seed=72)
        _, cache = forward(params, batch)
        assert np.array_equal(predict_logits(params, batch.inputs),
                              cache.pre_acts[-1])
