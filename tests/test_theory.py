"""Bound calculator against an exact rational oracle, plus noise checks."""

import math
from fractions import Fraction

import numpy as np
import pytest

from fedquant.data import FederatedDataset, dirichlet_partition, gen_synthetic
from fedquant.errors import ConfigError
from fedquant.mlp import ParamSet
from fedquant.rng import Purpose, RngStream
from fedquant.theory import (BoundInputs, check_conditions, compute_bound,
                             empirical_bound_check, empirical_noise_bound,
                             r_value)

REFERENCE = dict(L=1.0, sigma_l=1.0, sigma_g=1.0, D=100, K=10, T=1000,
                 eta_c=0.01, eta_s=1.0, method="qat", steps=(0.12,),
                 initial_gap=1.0)


def rational_bound_oracle(L, sigma_l, sigma_g, D, K, T, eta_c, eta_s, r,
                          initial_gap):
    """Exact evaluation of the bound formulas in rational arithmetic.

    Float inputs are taken at their exact binary values, so the only
    difference from the implementation is float64 rounding during evaluation.
    """
    L, ec, es, r = map(Fraction, (L, eta_c, eta_s, r))
    sl, sg, gap = map(Fraction, (sigma_l, sigma_g, initial_gap))
    K, T, D = Fraction(K), Fraction(T), Fraction(D)
    a = K / 4 - 2 * L * es * ec * K * K
    b = 4 * es * ec * K * K * L * L + L * es * es * (2 * K * K + K / 6)
    gamma = 24 * es * ec * K * K * L * L + L * es * es * K
    h = (4 * es / (3 * ec)) * K + 6 * L * es * es * K * K
    term_opt = gap / (T * es * ec * a)
    term_floor = (ec / (es * a)) * (b * sl ** 2 + gamma * K * sg ** 2
                                    + h * L * L * D * r * r)
    return a, b, gamma, h, term_opt, term_floor


def rel_close(x, y, tol=1e-12):
    return abs(float(x) - float(y)) <= tol * max(abs(float(x)), abs(float(y)), 1e-300)


class TestRValue:
    def test_uniform_noise_radius(self):
        assert rel_close(r_value("apqn", (0.12,)), 0.12 / math.sqrt(12.0))

    def test_rounding_radius_is_half_step(self):
        assert r_value("qat", (0.12,)) == 0.06

    def test_multi_bit_takes_worst_step(self):
        assert r_value("mqat", (0.85, 0.17, 0.01)) == 0.425

    def test_empty_steps_rejected(self):
        with pytest.raises(ConfigError):
            r_value("qat", ())

    def test_rounding_radius_dominates_noise_radius(self):
        for step in (1e-3, 0.1, 2.0, 50.0):
            assert r_value("qat", (step,)) > r_value("apqn", (step,))


@pytest.mark.parametrize("key", ["L", "eta_c", "eta_s", "sigma_l", "sigma_g",
                                 "initial_gap", "steps"])
def test_bound_inputs_reject_nan(key):
    nan = float("nan")
    with pytest.raises(ConfigError):
        BoundInputs(**{**REFERENCE, key: (nan,) if key == "steps" else nan})


class TestConditions:
    def test_reference_rates_pass(self):
        assert check_conditions(0.01, 1.0, 10, 1.0)

    def test_doubled_client_rate_fails(self):
        assert not check_conditions(0.02, 1.0, 10, 1.0)

    def test_vanishing_rate_passes(self):
        assert check_conditions(1e-12, 1.0, 10, 1.0)

    def test_positive_a_whenever_conditions_hold(self):
        rng = RngStream(1)
        for _ in range(200):
            L = float(10 ** (rng.uniform(1)[0] * 3 - 1))
            K = int(rng.integers(50, size=1)[0]) + 1
            es = float(10 ** (rng.uniform(1)[0] * 2 - 1))
            ec = float(10 ** (rng.uniform(1)[0] * 5 - 6))
            if check_conditions(ec, es, K, L):
                a = K / 4 - 2 * L * es * ec * K * K
                assert a > 0 or math.isclose(a, 0.0, abs_tol=1e-15)


class TestComputeBound:
    def test_matches_rational_oracle(self):
        inp = BoundInputs(**REFERENCE)
        report = compute_bound(inp)
        r = REFERENCE["steps"][0] / 2.0
        a, b, gamma, h, t_opt, t_floor = rational_bound_oracle(
            REFERENCE["L"], REFERENCE["sigma_l"], REFERENCE["sigma_g"],
            REFERENCE["D"], REFERENCE["K"], REFERENCE["T"],
            REFERENCE["eta_c"], REFERENCE["eta_s"], r, REFERENCE["initial_gap"])
        assert report.conditions_ok
        assert rel_close(report.A, a)
        assert rel_close(report.B, b)
        assert rel_close(report.Gamma, gamma)
        assert rel_close(report.H, h)
        assert rel_close(report.term_opt, t_opt)
        assert rel_close(report.term_floor, t_floor)
        assert rel_close(report.bound, t_opt + t_floor)
        assert report.bound == report.term_opt + report.term_floor

    def test_zero_noise_zero_variance_leaves_only_opt_term(self):
        inp = BoundInputs(**{**REFERENCE, "sigma_l": 0.0, "sigma_g": 0.0,
                             "steps": (1e-300,)})
        report = compute_bound(inp)
        assert rel_close(report.term_opt, report.bound, tol=1e-10)

    def test_opt_term_vanishes_with_rounds(self):
        small_t = compute_bound(BoundInputs(**{**REFERENCE, "T": 10}))
        big_t = compute_bound(BoundInputs(**{**REFERENCE, "T": 10 ** 9}))
        assert big_t.term_opt < small_t.term_opt / 10 ** 7
        assert rel_close(big_t.bound, big_t.term_floor, tol=1e-6)

    def test_condition_violation_reports_without_bound(self):
        report = compute_bound(BoundInputs(**{**REFERENCE, "eta_c": 0.02}))
        assert not report.conditions_ok
        assert report.bound is None and report.term_opt is None

    def test_a_exactly_zero_raises(self):
        # eta_c == 1/(8*L*K*eta_s) passes the conditions but kills A
        inp = BoundInputs(**{**REFERENCE, "K": 1, "eta_s": 2.0,
                             "eta_c": 1.0 / 16.0})
        with pytest.raises(ConfigError):
            compute_bound(inp)

    def test_monotonic_decreasing_in_rounds(self):
        bounds = [compute_bound(BoundInputs(**{**REFERENCE, "T": t})).bound
                  for t in (10, 100, 1000, 10000)]
        assert all(x > y for x, y in zip(bounds, bounds[1:]))

    def test_monotonic_increasing_in_noise_and_variance(self):
        for key, grid in (("steps", [(0.01,), (0.1,), (1.0,)]),
                          ("sigma_l", [0.1, 1.0, 10.0]),
                          ("sigma_g", [0.1, 1.0, 10.0]),
                          ("D", [10, 100, 1000])):
            bounds = [compute_bound(BoundInputs(**{**REFERENCE, key: v})).bound
                      for v in grid]
            assert all(x < y for x, y in zip(bounds, bounds[1:])), key


class TestEmpiricalNoise:
    def params_with_scale(self, scale, seed=0, dim=(5, 8)):
        rng = RngStream(seed)
        w = rng.normal(dim) * scale
        return ParamSet([(w, np.zeros(dim[1]))])

    def test_rounding_error_within_half_step_in_range(self):
        params = self.params_with_scale(0.05)
        stats = empirical_noise_bound(params, (0.02,), "qat", trials=3,
                                      rng=RngStream(1))
        assert stats.max_abs <= 0.01 + 1e-15
        assert stats.passed

    def test_zero_weights_have_zero_error(self):
        params = ParamSet([(np.zeros((4, 4)), np.zeros(4))])
        stats = empirical_noise_bound(params, (0.5,), "qat", trials=1,
                                      rng=RngStream(2))
        assert stats.mean_sq_norm == 0.0 and stats.max_abs == 0.0

    def test_uniform_noise_mean_square_concentrates(self):
        """Scalar-by-scalar, the sampled square error is step^2/12 +- 2%."""
        params = ParamSet([(np.zeros((1, 1)), np.zeros(1))])
        stats = empirical_noise_bound(params, (1.0,), "apqn", trials=10 ** 6,
                                      rng=RngStream(3))
        assert abs(stats.mean_sq_norm - 1.0 / 12.0) < 0.02 / 12.0
        assert stats.passed

    def test_multi_bit_honors_worst_case(self):
        params = self.params_with_scale(0.1, seed=4)
        stats = empirical_noise_bound(params, (0.05, 0.02), "mqat", trials=200,
                                      rng=RngStream(5))
        assert stats.r == 0.025
        assert stats.passed


class TestEmpiricalBoundCheck:
    def test_bound_dominates_small_run(self):
        """Short smoke version of the dominance check (full run in acceptance)."""
        root = RngStream(100)
        train, val = gen_synthetic(2, 5, 40, 2.0, root.child(Purpose.DATA))
        assignment = dirichlet_partition(train.labels, 4, 1.0,
                                         root.child(Purpose.PARTITION))
        data = FederatedDataset(base=train, assignment=assignment, holdout=val)
        result = empirical_bound_check(data, hidden=(6,), train_bits=4,
                                       rounds=25, seed=100)
        assert result.report.conditions_ok
        assert result.dominated
        assert result.min_grad_sq <= result.report.bound
