"""Local training variants, bit sampling and step calibration."""

import numpy as np
import pytest

from fedquant.errors import ConfigError, DivergedError
from fedquant.mlp import Batch, backward, forward, init_params, kure_gradient
from fedquant.quantize import quantize, rescale_step
from fedquant.rng import Purpose, RngStream
from fedquant.strategies import (ClientTask, StrategyConfig, calibrate_steps,
                                 local_train, resolve_bits, sample_bitwidth)
from helpers import steps_consistent


def make_net(seed=0, widths=(6, 10, 4)):
    return init_params(list(widths), RngStream(seed))


def make_batches(count, n=12, d=6, classes=4, seed=1):
    rng = RngStream(seed)
    return [Batch(rng.normal((n, d)), rng.integers(classes, size=n))
            for _ in range(count)]


def make_task(params, batches, tables=None, eta=0.1, client=3, round_idx=2):
    return ClientTask(client_id=client, round_idx=round_idx, start_params=params,
                      step_tables=tables, eta_c=eta,
                      batches=batches, rng=RngStream(0, (Purpose.NOISE, round_idx, client)))


class TestStrategyConfig:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigError):
            StrategyConfig(kind="magic")

    def test_qat_needs_bits(self):
        with pytest.raises(ConfigError):
            StrategyConfig(kind="qat")

    def test_mqat_needs_bit_set(self):
        with pytest.raises(ConfigError):
            StrategyConfig(kind="mqat", bit_set=())

    def test_bit_set_members_validated(self):
        with pytest.raises(ConfigError):
            StrategyConfig(kind="mqat", bit_set=(2, 5))

    def test_zero_lambda_is_legal(self):
        StrategyConfig(kind="kure", lam=0.0)


class TestSampleBitwidth:
    def test_singleton(self):
        rng = RngStream(1)
        assert all(sample_bitwidth((4,), rng) == 4 for _ in range(100))

    def test_uniform_over_six(self):
        bits = (2, 3, 4, 6, 8, 32)
        counts = {b: 0 for b in bits}
        rng = RngStream(2)
        n = 60000
        for _ in range(n):
            counts[sample_bitwidth(bits, rng)] += 1
        for b in bits:
            assert abs(counts[b] / n - 1 / 6) < 0.02

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            sample_bitwidth((), RngStream(0))

    def test_fixed_per_client_ignores_round(self):
        strat = StrategyConfig(kind="mqat", bit_set=(2, 3, 4, 6, 8, 32),
                               mqat_mode="fixed_per_client")
        root = RngStream(7)
        assert resolve_bits(strat, 0, 17, root) == resolve_bits(strat, 999, 17, root)

    def test_per_round_draws_vary_across_clients(self):
        strat = StrategyConfig(kind="mqat", bit_set=(2, 3, 4, 6, 8, 32))
        root = RngStream(8)
        draws = {resolve_bits(strat, 5, c, root) for c in range(40)}
        assert len(draws) > 1


class TestCalibration:
    def test_singleton_bit_set(self):
        params = make_net()
        tables = calibrate_steps(params, (8,), None, quantize_acts=False)
        assert all(set(t.steps) == {8} for t in tables.weights)

    def test_consistency_invariant_by_construction(self):
        params = make_net()
        tables = calibrate_steps(params, (2, 3, 4, 6, 8), None, quantize_acts=False)
        for t in tables.weights:
            assert set(t.steps) == {2, 3, 4, 6, 8}
            assert steps_consistent(t)
            assert t.steps[4] == rescale_step(t.steps[2], 2, 4)

    def test_recalibration_is_deterministic(self):
        params = make_net(seed=5)
        batch = make_batches(1)[0]
        a = calibrate_steps(params, (2, 8), batch, quantize_acts=True)
        b = calibrate_steps(params, (2, 8), batch, quantize_acts=True)
        assert all(x.steps == y.steps for x, y in zip(a.weights, b.weights))
        assert all(x.steps == y.steps for x, y in zip(a.acts, b.acts))

    def test_activation_tables_need_batch(self):
        with pytest.raises(ConfigError):
            calibrate_steps(make_net(), (4,), None, quantize_acts=True)

    def test_identity_only_set_yields_empty_tables(self):
        tables = calibrate_steps(make_net(), (32,), None, quantize_acts=False)
        assert all(not t.steps for t in tables.weights)


class TestLocalTrain:
    def test_single_step_matches_sgd_oracle(self):
        params = make_net(seed=11)
        batches = make_batches(1, seed=12)
        update = local_train(make_task(params, batches), StrategyConfig())
        # independent one-step oracle; (w - eta*g) - w reassociates the last
        # bits, so the comparison is tight-tolerance rather than bitwise
        _, cache = forward(params, batches[0])
        grad = backward(cache).flatten()
        assert np.allclose(update.delta, -0.1 * grad, rtol=1e-12, atol=1e-15)
        assert len(update.local_loss_trace) == 1

    def test_multi_step_matches_composed_oracle(self):
        params = make_net(seed=13)
        batches = make_batches(3, seed=14)
        update = local_train(make_task(params, batches), StrategyConfig())
        shadow = params.copy()
        for b in batches:
            _, cache = forward(shadow, b)
            shadow.add_scaled(backward(cache), -0.1)
        assert np.array_equal(update.delta, shadow.flatten() - params.flatten())

    def test_delta_norm_bounded_by_step_norms(self):
        params = make_net(seed=15)
        batches = make_batches(4, seed=16)
        update = local_train(make_task(params, batches), StrategyConfig())
        shadow = params.copy()
        norm_sum = 0.0
        for b in batches:
            _, cache = forward(shadow, b)
            g = backward(cache)
            norm_sum += float(np.linalg.norm(g.flatten()))
            shadow.add_scaled(g, -0.1)
        assert np.linalg.norm(update.delta) <= 0.1 * norm_sum + 1e-12

    def test_qat_at_32_bits_reduces_to_baseline(self):
        """A 32-bit round of any quantizing strategy trains the plain
        network: qat, apqn on weights and activations, and mqat at a drawn
        32."""
        params = make_net(seed=17)
        batches = make_batches(2, seed=18)
        tables = calibrate_steps(params, (32,), None, quantize_acts=False)
        base = local_train(make_task(params, batches), StrategyConfig())
        qat = local_train(make_task(params, batches, tables=tables),
                          StrategyConfig(kind="qat", train_bits=32))
        assert np.array_equal(base.delta, qat.delta)
        act_tables = calibrate_steps(params, (32,), batches[0], quantize_acts=True)
        apqn = local_train(make_task(params, batches, tables=act_tables),
                           StrategyConfig(kind="apqn", train_bits=32,
                                          quantize_acts=True))
        assert np.array_equal(base.delta, apqn.delta)
        mixed = calibrate_steps(params, (2, 32), batches[0], quantize_acts=True)
        mqat = local_train(make_task(params, batches, tables=mixed),
                           StrategyConfig(kind="mqat", bit_set=(2, 32),
                                          quantize_acts=True), sampled_bit=32)
        assert np.array_equal(base.delta, mqat.delta)

    def test_kure_lambda_zero_reduces_to_baseline(self):
        params = make_net(seed=19)
        batches = make_batches(2, seed=20)
        base = local_train(make_task(params, batches), StrategyConfig())
        kure = local_train(make_task(params, batches),
                           StrategyConfig(kind="kure", lam=0.0))
        assert np.array_equal(base.delta, kure.delta)

    def test_mqat_singleton_equals_qat(self):
        params = make_net(seed=21)
        batches = make_batches(2, seed=22)
        tables = calibrate_steps(params, (4,), None, quantize_acts=False)
        qat = local_train(make_task(params, batches, tables=tables),
                          StrategyConfig(kind="qat", train_bits=4))
        mqat = local_train(make_task(params, batches, tables=tables),
                           StrategyConfig(kind="mqat", bit_set=(4,)),
                           sampled_bit=4)
        assert np.array_equal(qat.delta, mqat.delta)

    def test_kure_gradient_included(self):
        params = make_net(seed=23)
        batches = make_batches(1, seed=24)
        lam = 0.7
        update = local_train(make_task(params, batches),
                             StrategyConfig(kind="kure", lam=lam))
        _, cache = forward(params, batches[0])
        grad = backward(cache)
        grad.add_scaled(kure_gradient(params, 1.8), lam)
        assert np.allclose(update.delta, -0.1 * grad.flatten(),
                           rtol=1e-12, atol=1e-15)

    def test_shadow_weights_stay_off_grid(self):
        """Only the forward pass sees quantized values; the returned delta
        moves the full-precision weights."""
        params = make_net(seed=25)
        batches = make_batches(3, seed=26)
        tables = calibrate_steps(params, (2,), None, quantize_acts=False)
        update = local_train(make_task(params, batches, tables=tables),
                             StrategyConfig(kind="qat", train_bits=2))
        final = params.flatten() + update.delta
        spec = tables.weights[0].spec_for(2)
        w0 = params.unflatten(final).layers[0][0]
        assert np.any(quantize(w0, spec) != w0)

    def test_apqn_noise_stream_is_replayable(self):
        params = make_net(seed=27)
        batches = make_batches(2, seed=28)
        tables = calibrate_steps(params, (4,), None, quantize_acts=False)
        strat = StrategyConfig(kind="apqn", train_bits=4)
        a = local_train(make_task(params, batches, tables=tables), strat)
        b = local_train(make_task(params, batches, tables=tables), strat)
        assert np.array_equal(a.delta, b.delta)

    def test_divergence_reports_round_and_client(self):
        params = make_net(seed=29)
        batches = make_batches(2, seed=30)
        task = make_task(params, batches, eta=1e300, client=9, round_idx=4)
        with pytest.raises(DivergedError) as err:
            local_train(task, StrategyConfig())
        assert err.value.client_id == 9
        assert err.value.round_idx == 4

    def test_overflow_in_the_last_step_reports_round_and_client(self):
        # the one step's update overflows to inf without a warning; no later
        # forward pass sees it, so the delta check must name the client
        params = make_net(seed=29)
        batches = [Batch(b.inputs * 1e3, b.labels) for b in make_batches(1, seed=30)]
        task = make_task(params, batches, eta=1e308, client=9, round_idx=4)
        with pytest.raises(DivergedError, match="update non-finite") as err:
            local_train(task, StrategyConfig())
        assert (err.value.round_idx, err.value.client_id) == (4, 9)

    def test_mqat_requires_sampled_bit(self):
        params = make_net()
        batches = make_batches(1)
        tables = calibrate_steps(params, (2, 4), None, quantize_acts=False)
        with pytest.raises(ConfigError):
            local_train(make_task(params, batches, tables=tables),
                        StrategyConfig(kind="mqat", bit_set=(2, 4)))
