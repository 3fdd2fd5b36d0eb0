"""Quantizer laws: grid membership, idempotence, bounded noise, rescaling."""

import numpy as np
import pytest

from fedquant.errors import ConfigError, NumericError
from fedquant.quantize import (IDENTITY_BITS, RANGE_CANDIDATES, QuantSpec,
                               StepTable, candidate_mse, estimate_range_mse,
                               make_spec, pseudo_quantize, quantize,
                               rescale_step, round_half_away, ste_backward,
                               ste_mask)
from fedquant.rng import RngStream
from helpers import (quantize_oracle, range_search_oracle, ste_mask_oracle,
                     steps_consistent)

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
        spec = estimate_range_mse(w, 3)
        assert np.mean((quantize(w, spec) - w) ** 2) <= 1e-30

    def test_all_zero_tensor_gets_default_range(self):
        spec = estimate_range_mse(np.zeros(16), 4)
        assert spec.step == 1.0 / spec.grid_max
        assert spec.step == make_spec(1.0, 4).step


def _with_negative_zeros(w):
    w = w.copy()
    w.ravel()[::3] = -0.0
    return w


# tensor layouts the blocked kernel must read exactly as quantize does
SEARCH_LAYOUTS = {
    "c-order": lambda w: w,
    "f-order": np.asfortranarray,
    "strided": lambda w: w[:, ::2],
    "reversed": lambda w: w[::-1],
    "transposed": lambda w: w.T,
    "non-negative": np.abs,
    "negative-zeros": _with_negative_zeros,
}
SEARCH_SHAPES = ((32, 64), (64, 10), (3, 5), (1, 1))
SEARCH_TIES = {
    "exact-grid": np.array([-0.3, -0.2, -0.1, 0.0, 0.1, 0.2, 0.3, 0.1]),
    "two-point": np.array([-1.0, 1.0] * 50),
    "quarter-grid": np.round(RngStream(8).normal((20, 30)) * 4) / 4,
}


def assert_matches_oracle(w, bits, signed, num_candidates):
    """Every candidate's MSE bit for bit; at the search's own candidate count
    also the spec ``estimate_range_mse`` chooses."""
    spec, steps, mses = range_search_oracle(w, bits, signed, num_candidates)
    got = candidate_mse(w, np.array(steps), bits, signed)
    assert got.tobytes() == np.array(mses).tobytes()
    if num_candidates == RANGE_CANDIDATES:
        assert estimate_range_mse(w, bits, signed) == spec


class TestRangeKernel:
    """The blocked search equals one ``quantize`` call per candidate, bit for
    bit: every candidate's MSE at 2, 3, 100 and 257 candidates (block
    boundaries fall differently), and the chosen spec at ``RANGE_CANDIDATES``."""

    @pytest.mark.parametrize("layout", sorted(SEARCH_LAYOUTS))
    @pytest.mark.parametrize("shape", SEARCH_SHAPES,
                             ids=["x".join(map(str, s)) for s in SEARCH_SHAPES])
    def test_layouts_match_oracle(self, layout, shape):
        w = SEARCH_LAYOUTS[layout](RngStream(sum(shape)).normal(shape))
        for bits in REAL_BITS:
            for signed in (True, False):
                for num_candidates in (2, 3, RANGE_CANDIDATES, 257):
                    assert_matches_oracle(w, bits, signed, num_candidates)

    @pytest.mark.parametrize("case", sorted(SEARCH_TIES))
    def test_exact_ties_match_oracle(self, case):
        for bits in REAL_BITS:
            for signed in (True, False):
                for num_candidates in (2, 3, RANGE_CANDIDATES, 257):
                    assert_matches_oracle(SEARCH_TIES[case], bits, signed,
                                          num_candidates)

    def test_tensor_larger_than_one_block(self):
        w = RngStream(9).normal((160, 128))
        for bits in REAL_BITS:
            assert_matches_oracle(w, bits, True, RANGE_CANDIDATES)

    def test_unsigned_search_on_negative_input(self):
        w = -np.abs(RngStream(10).normal(64))
        for bits in REAL_BITS:
            spec = estimate_range_mse(w, bits, signed=False)
            assert spec == range_search_oracle(w, bits, False)[0]
            # every candidate snaps w to 0, so the tie keeps the full range
            assert spec == make_spec(float(np.max(np.abs(w))), bits, signed=False)

    def test_all_zero_tensor_matches_oracle(self):
        for signed in (True, False):
            spec = estimate_range_mse(np.zeros((4, 4)), 3, signed=signed)
            assert spec.step == 1.0 / spec.grid_max
            assert spec == range_search_oracle(np.zeros((4, 4)), 3, signed)[0]

    def test_subnormal_tensor_matches_oracle(self):
        for bits in REAL_BITS:
            assert_matches_oracle(np.array([1e-318, -3e-319]), bits, True, 100)
        # the smallest candidate steps underflow to zero, as in the oracle
        with pytest.raises(ConfigError,
                           match="quantizer step must be positive, got 0.0"):
            estimate_range_mse(np.full(4, 1e-320), 8)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_tensor_rejected(self, bad):
        w = np.ones(8)
        w[3] = bad
        expected = "nan" if np.isnan(bad) else "inf"
        with pytest.raises(ConfigError,
                           match=f"range_max must be positive, got {expected}"):
            estimate_range_mse(w, 4)


# float.hex of the steps the search picks at bits 2, 3, 4, 6, 8 for
# RngStream(seed).normal(shape) (made non-negative where marked), recorded
# from the one-quantize-call-per-candidate search.
GOLDEN_SEARCH = {
    (11, (32, 64), True, False): [
        "0x1.0c835e2876908p+0", "0x1.2c45d4a65e0cfp-1", "0x1.5a77f55d80365p-2",
        "0x1.9b4aafa8cd0d5p-4", "0x1.b02182a9071e4p-6"],
    (12, (64, 10), True, False): [
        "0x1.060c00944d217p+0", "0x1.307938bfd115dp-1", "0x1.5643ebdbd274ep-2",
        "0x1.6f1b6e869d9a3p-4", "0x1.794ce3bfee0bep-6"],
    (13, (20, 64), False, False): [
        "0x1.4b7a240738655p-1", "0x1.8c7376c8d9235p-2", "0x1.0303c1a8c47a1p-2",
        "0x1.1cdb7f1142e44p-4", "0x1.223667af78778p-6"],
    (14, (300,), True, False): [
        "0x1.06a0bfa12eea6p+0", "0x1.33b9c4175dc27p-1", "0x1.599f7617b8c13p-2",
        "0x1.821ca09ce4214p-4", "0x1.910de8d5663f2p-6"],
    (15, (20, 64), False, True): [
        "0x1.499d1bec2df23p-1", "0x1.5feb1be32394fp-2", "0x1.7ff897188491bp-3",
        "0x1.b42e3832c389bp-5", "0x1.b3672d9a42814p-7"],
}


@pytest.mark.parametrize("seed,shape,signed,relu", sorted(GOLDEN_SEARCH))
def test_range_search_matches_golden_steps(seed, shape, signed, relu):
    w = RngStream(seed).normal(shape)
    if relu:
        w = np.maximum(w, 0.0)
    got = [estimate_range_mse(w, b, signed=signed).step.hex() for b in REAL_BITS]
    assert got == GOLDEN_SEARCH[(seed, shape, signed, relu)]


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


def _edge_values(spec):
    """Grid points, ties, both zeros, the clip edges and their neighbours."""
    lo, hi = spec.grid_min, spec.grid_max
    k = np.arange(lo - 3, hi + 4, dtype=np.float64)
    ratios = np.concatenate([k, k + 0.5, k - 0.5, [0.0, -0.0, 0.3, -0.3, 0.49999999,
                                                 -0.49999999, 1e-300, -1e-300]])
    values = np.concatenate([ratios * spec.step,
                             [5e-324, -5e-324, 1e300, -1e300, 0.0, -0.0]])
    edges = np.array([lo, hi, lo - 0.5, hi + 0.5], dtype=np.float64) * spec.step
    return np.concatenate([values, np.nextafter(edges, np.inf),
                           np.nextafter(edges, -np.inf)])


class TestFastPathOracle:
    """``quantize`` and ``ste_mask`` run in place; the bits must be those of
    the plain expressions kept in ``helpers``."""

    @pytest.mark.parametrize("bits", REAL_BITS)
    @pytest.mark.parametrize("signed", [True, False])
    def test_quantize_and_mask_match_at_every_width(self, bits, signed):
        rng = RngStream(bits, (int(signed),))
        for step in (1.0, 0.1, 0.37, 3e-3, 2.0 ** -20, 7e5):
            spec = QuantSpec(bits=bits, step=step, signed=signed)
            random = rng.normal((16, 24)) * step * spec.grid_max * 0.8
            for w in (_edge_values(spec), random, random.T, random[::2, 3:17:3],
                      np.asfortranarray(random), random.reshape(-1)[::-1]):
                got = quantize(w, spec)
                want = quantize_oracle(w, spec)
                assert got.shape == want.shape and got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()
                mask = ste_mask(w, spec)
                assert mask.tobytes() == ste_mask_oracle(w, spec).tobytes()

    def test_input_is_not_written(self):
        spec = QuantSpec(bits=3, step=0.25)
        w = RngStream(0).normal((5, 7))
        before = w.copy()
        quantize(w, spec)
        ste_mask(w, spec)
        assert w.tobytes() == before.tobytes()

    def test_integer_and_list_input(self):
        spec = QuantSpec(bits=4, step=0.5, signed=False)
        for w in (np.arange(-6, 12).reshape(3, 6), [[-1.2, 0.3, 7.75, 9.0]]):
            assert quantize(w, spec).tobytes() == quantize_oracle(w, spec).tobytes()
            assert ste_mask(w, spec).tobytes() == ste_mask_oracle(w, spec).tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_still_rejected(self, bad):
        w = np.ones((3, 3))
        w[1, 2] = bad
        with pytest.raises(NumericError, match="non-finite"):
            quantize(w, QuantSpec(bits=2, step=0.5))
