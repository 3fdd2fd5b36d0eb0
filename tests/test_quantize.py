"""Quantizer laws: grid membership, idempotence, bounded noise, rescaling."""

import numpy as np
import pytest

from fedquant.errors import ConfigError, NumericError
from fedquant.quantize import (IDENTITY_BITS, QuantSpec, StepTable,
                               estimate_range_mse, make_spec, pseudo_quantize,
                               quantize, rescale_step, round_half_away,
                               ste_backward, ste_mask)
from fedquant.rng import RngStream
from helpers import steps_consistent

REAL_BITS = (2, 3, 4, 6, 8)


def random_spec(rng, signed=True):
    bits = REAL_BITS[int(rng.integers(len(REAL_BITS), size=1)[0])]
    range_max = float(10.0 ** (rng.uniform(1)[0] * 4 - 2))  # 1e-2 .. 1e2
    return make_spec(range_max, bits, signed=signed)


class TestRounding:
    def test_ties_away_from_zero(self):
        x = np.array([0.5, 1.5, 2.5, -0.5, -1.5, -2.5])
        assert np.array_equal(round_half_away(x),
                              np.array([1.0, 2.0, 3.0, -1.0, -2.0, -3.0]))

    def test_plain_cases(self):
        assert np.array_equal(round_half_away(np.array([0.4, -0.4, 1.2])),
                              np.array([0.0, -0.0, 1.0]))


class TestQuantize:
    def test_zero_is_a_fixed_point(self):
        for bits in REAL_BITS:
            spec = make_spec(1.0, bits)
            assert quantize(np.array([0.0]), spec)[0] == 0.0

    def test_two_bit_hand_example(self):
        # grid {-1.0, -0.5, 0, 0.5} at step 0.5
        spec = QuantSpec(bits=2, step=0.5)
        assert quantize(np.array([0.6]), spec)[0] == 0.5

    def test_clipping_to_grid_max(self):
        spec = QuantSpec(bits=2, step=0.5)
        assert quantize(np.array([10.0]), spec)[0] == 0.5
        assert quantize(np.array([-10.0]), spec)[0] == -1.0

    def test_identity_at_32_bits(self):
        # full precision is a None plan entry, never a spec
        with pytest.raises(ConfigError, match="full precision"):
            make_spec(1.0, IDENTITY_BITS)

    def test_rejects_non_finite(self):
        with pytest.raises(NumericError):
            quantize(np.array([np.inf]), make_spec(1.0, 4))

    def test_unsigned_grid_floors_at_zero(self):
        spec = make_spec(1.0, 2, signed=False)  # grid {0,1,2,3}*step
        assert quantize(np.array([-5.0]), spec)[0] == 0.0


class TestQuantizeLaws:
    """Randomized law suite over (tensor, spec) pairs."""

    def test_grid_membership_idempotence_bounded_noise(self):
        rng = RngStream(31337)
        for trial in range(500):
            signed = trial % 2 == 0
            spec = random_spec(rng, signed=signed)
            w = rng.normal(64) * spec.step * spec.grid_max * 0.7
            q = quantize(w, spec)
            k = round_half_away(q / spec.step)
            assert np.all(k >= spec.grid_min) and np.all(k <= spec.grid_max)
            assert np.array_equal(q, spec.step * k)
            assert np.array_equal(quantize(q, spec), q)
            in_range = np.abs(w) <= spec.grid_max * spec.step
            if signed:
                assert np.all(np.abs(q - w)[in_range] <= spec.step / 2 + 1e-15)

    def test_in_range_error_bound_unsigned(self):
        rng = RngStream(99)
        spec = make_spec(3.0, 4, signed=False)
        w = rng.uniform(1000) * 3.0
        q = quantize(w, spec)
        assert np.max(np.abs(q - w)) <= spec.step / 2 + 1e-15


class TestMakeSpec:
    def test_eight_bit_signed_step(self):
        assert make_spec(1.0, 8).step == 1.0 / 127.0

    def test_two_bit_signed_step(self):
        assert make_spec(1.0, 2).step == 1.0

    def test_unsigned_step(self):
        assert make_spec(1.0, 2, signed=False).step == 1.0 / 3.0

    def test_rejects_degenerate_range(self):
        with pytest.raises(ConfigError):
            make_spec(0.0, 4)

    def test_rejects_unsupported_bits(self):
        with pytest.raises(ConfigError):
            make_spec(1.0, 5)

    def test_grid_bounds_validated(self):
        signed = QuantSpec(bits=4, step=0.1)
        assert (signed.grid_min, signed.grid_max) == (-8, 7)
        unsigned = QuantSpec(bits=4, step=0.1, signed=False)
        assert (unsigned.grid_min, unsigned.grid_max) == (0, 15)

    def test_rejects_bad_step(self):
        for step in (0.0, -0.1, float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="step must be positive"):
                QuantSpec(bits=4, step=step)


@pytest.mark.parametrize("call", [
    lambda: QuantSpec(bits=IDENTITY_BITS, step=0.1),
    lambda: make_spec(1.0, IDENTITY_BITS),
    lambda: estimate_range_mse(np.ones(4), IDENTITY_BITS),
    lambda: rescale_step(0.1, IDENTITY_BITS, 4),
    lambda: rescale_step(0.1, 4, IDENTITY_BITS),
    lambda: StepTable({4: 0.2}).step_for(IDENTITY_BITS),
    lambda: StepTable({4: 0.2}).spec_for(IDENTITY_BITS),
], ids=["QuantSpec", "make_spec", "estimate_range_mse", "rescale_step-from",
        "rescale_step-to", "StepTable.step_for", "StepTable.spec_for"])
def test_32_bits_has_no_grid(call):
    with pytest.raises(ConfigError, match="32 bits is full precision"):
        call()


class TestRangeEstimation:
    def test_two_point_tensor_prefers_full_range(self):
        w = np.array([-1.0, 1.0] * 50)
        spec = estimate_range_mse(w, 2)
        assert spec.step * spec.grid_max == 1.0

    def test_never_worse_than_full_range(self):
        rng = RngStream(7)
        for _ in range(20):
            w = rng.normal(256)
            bits = REAL_BITS[int(rng.integers(len(REAL_BITS), size=1)[0])]
            chosen = estimate_range_mse(w, bits)
            full = make_spec(float(np.max(np.abs(w))), bits)
            mse_chosen = np.mean((quantize(w, chosen) - w) ** 2)
            mse_full = np.mean((quantize(w, full) - w) ** 2)
            assert mse_chosen <= mse_full + 1e-18

    def test_exact_grid_recovers_zero_error(self):
        w = np.array([-0.3, -0.2, -0.1, 0.0, 0.1, 0.2, 0.3, 0.1])
        spec = estimate_range_mse(w, 3, num_candidates=100)
        assert np.mean((quantize(w, spec) - w) ** 2) <= 1e-30

    def test_all_zero_tensor_gets_default_range(self):
        spec = estimate_range_mse(np.zeros(16), 4)
        assert spec.default_range
        assert spec.step == make_spec(1.0, 4).step

    def test_candidate_count_validated(self):
        with pytest.raises(ConfigError):
            estimate_range_mse(np.ones(4), 4, num_candidates=1)


class TestRescale:
    def test_eight_to_four(self):
        assert rescale_step(0.01, 8, 4) == (255 / 15) * 0.01

    def test_eight_to_two(self):
        assert rescale_step(0.01, 8, 2) == (255 / 3) * 0.01

    def test_same_bits_is_identity(self):
        assert rescale_step(0.37, 6, 6) == 0.37

    def test_rejects_identity_bits(self):
        with pytest.raises(ConfigError):
            rescale_step(0.1, 32, 4)
        with pytest.raises(ConfigError):
            rescale_step(0.1, 4, 32)

    def test_step_table_consistency_after_populate(self):
        base = 0.013
        table = StepTable({2: base})
        for b in (3, 4, 6, 8):
            table.steps[b] = rescale_step(base, 2, b)
        assert steps_consistent(table)

    def test_step_table_derives_missing_bits(self):
        table = StepTable({4: 0.2})
        assert table.step_for(8) == rescale_step(0.2, 4, 8)
        with pytest.raises(ConfigError):
            table.step_for(32)
        with pytest.raises(ConfigError):
            StepTable({}).step_for(4)


class TestPseudoQuantize:
    def test_noise_support(self):
        rng = RngStream(12)
        w = rng.normal(10000)
        out = pseudo_quantize(w, 0.25, RngStream(13))
        assert np.max(np.abs(out - w)) <= 0.125

    def test_tiny_step_approaches_identity(self):
        w = np.array([1.0, -2.0, 3.0])
        out = pseudo_quantize(w, 1e-300, RngStream(0))
        assert np.allclose(out, w, atol=1e-299)

    def test_mean_square_matches_uniform_variance(self):
        """Sampled square error concentrates at step^2 / 12."""
        step = 0.8
        w = np.zeros(10 ** 6)
        noise = pseudo_quantize(w, step, RngStream(555))
        ms = np.mean(noise ** 2)
        assert abs(ms - step ** 2 / 12.0) < 0.02 * step ** 2 / 12.0

    def test_rejects_bad_step(self):
        with pytest.raises(ConfigError):
            pseudo_quantize(np.zeros(3), 0.0, RngStream(0))

    def test_leaves_input_unchanged(self):
        w = RngStream(14).normal((16, 8))
        before = w.copy()
        out = pseudo_quantize(w, 0.5, RngStream(15))
        assert np.array_equal(w, before)
        assert out is not w and not np.array_equal(out, w)


class TestSTE:
    def test_pass_through_inside_range(self):
        spec = make_spec(1.0, 4)
        w = np.linspace(-1.0, 1.0, 32)
        g = np.ones(32)
        assert np.array_equal(ste_backward(g, w, spec), g)

    def test_zero_outside_range(self):
        spec = make_spec(1.0, 4)
        w = np.array([5.0, -5.0, 0.1])
        out = ste_backward(np.ones(3), w, spec)
        assert np.array_equal(out, np.array([0.0, 0.0, 1.0]))

    def test_identity_spec_passes_everything(self):
        # no 32-bit spec exists to pass gradients through; a None plan
        # entry leaves them whole instead (tests/test_mlp.py)
        with pytest.raises(ConfigError, match="full precision"):
            QuantSpec(bits=IDENTITY_BITS, step=1.0)

    def test_negative_boundary_included(self):
        # signed grid reaches one step lower on the negative side
        spec = make_spec(1.0, 2)  # step 1, grid [-2, 1]
        w = np.array([-2.0, -2.0001, 1.0, 1.0001])
        mask = ste_mask(w, spec)
        assert mask.tolist() == [True, False, True, False]
