"""Determinism and statistical sanity of the counter-based streams."""

import hashlib

import numpy as np
import pytest

from fedquant.rng import RngStream


class TestDeterminism:
    def test_same_seed_and_path_replays_bitwise(self):
        a = RngStream(7, (0, 0, 0)).uniform(1000)
        b = RngStream(7, (0, 0, 0)).uniform(1000)
        assert np.array_equal(a, b)

    def test_different_path_decorrelates(self):
        """Streams on sibling paths should disagree almost everywhere."""
        a = RngStream(7, (0, 0, 0)).uniform(1000)
        b = RngStream(7, (0, 1, 0)).uniform(1000)
        assert np.sum(a != b) > 990

    def test_path_extension_differs_from_parent(self):
        parent = RngStream(3, (1,))
        child = parent.child(0)
        assert not np.array_equal(RngStream(3, (1,)).uniform(100),
                                  child.uniform(100))

    def test_child_matches_explicit_path(self):
        via_child = RngStream(11).child(4, 2).uniform(64)
        direct = RngStream(11, (4, 2)).uniform(64)
        assert np.array_equal(via_child, direct)

    def test_sequential_consumption_is_stable(self):
        """Two draws of n behave like one draw of 2n."""
        s1 = RngStream(5, (9,))
        first = np.concatenate([s1.uniform(10), s1.uniform(10)])
        s2 = RngStream(5, (9,))
        assert np.array_equal(first, s2.uniform(20))

    def test_negative_path_entries_are_legal(self):
        assert RngStream(1, (-3,)).uniform(4).shape == (4,)


# sha256 of the raw bytes of one stream's uniform, normal, integers,
# permutation and gamma (boosted and plain) draws, in that order. Any change
# to these bits changes every artifact of every run.
GOLDEN_DRAWS = {
    (0, ()): "104b68cb665895f77038cdd6b0f7bd852672425bf11137a1c3c7f0e7b774a748",
    (7, (5, 3, 2)): "228f30c77da5cb3d95c16f675236fc30f1acfb16fd5a2c8bbfeef96894924448",
    (1729, (4, 99, 12)): "4504024b2e33b671c1478307b349055a3d939f6988e5a999ae6886a435be4fda",
}


@pytest.mark.parametrize("seed,path", sorted(GOLDEN_DRAWS))
def test_draws_match_golden_digest(seed, path):
    s = RngStream(seed, path)
    draws = [s.uniform((3, 5)), s.normal(9), s.integers(6, 11), s.permutation(13),
             s.gamma(0.7, 8), s.gamma(2.5, 8)]
    assert [d.dtype.str for d in draws] == ["<f8", "<f8", "<i8", "<i8", "<f8", "<f8"]
    digest = hashlib.sha256(b"".join(d.tobytes() for d in draws)).hexdigest()
    assert digest == GOLDEN_DRAWS[(seed, path)]


class TestDistributions:
    def test_uniform_range_and_mean(self):
        u = RngStream(123).uniform(10 ** 6)
        assert np.all((u >= 0.0) & (u < 1.0))
        assert abs(u.mean() - 0.5) < 0.002

    def test_uniform_variance(self):
        u = RngStream(77).uniform(10 ** 6)
        assert abs(u.var() - 1.0 / 12.0) < 0.001

    def test_normal_moments(self):
        z = RngStream(42).normal(10 ** 6)
        assert abs(z.mean()) < 0.01
        assert abs(z.std() - 1.0) < 0.01

    def test_normal_odd_count(self):
        assert RngStream(1).normal(7).shape == (7,)

    def test_shaped_draws(self):
        assert RngStream(0).uniform((3, 4)).shape == (3, 4)
        assert RngStream(0).normal((2, 5)).shape == (2, 5)

    def test_integers_cover_range_uniformly(self):
        draws = RngStream(9).integers(6, size=60000)
        counts = np.bincount(draws, minlength=6)
        assert np.all(np.abs(counts / 60000 - 1 / 6) < 0.02 * 6)

    def test_integers_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            RngStream(0).integers(0)

    def test_gamma_rejects_nan_alpha(self):
        # NaN fails every acceptance test of the rejection loop
        with pytest.raises(ValueError):
            RngStream(0).gamma(float("nan"), 4)

    def test_permutation_is_a_permutation(self):
        p = RngStream(4).permutation(257)
        assert np.array_equal(np.sort(p), np.arange(257))

    def test_gamma_mean_matches_shape(self):
        g = RngStream(13).gamma(3.5, 200000)
        assert np.all(g > 0)
        assert abs(g.mean() - 3.5) < 0.05

    def test_gamma_boost_for_small_shape(self):
        g = RngStream(14).gamma(0.3, 200000)
        assert np.all(g >= 0)
        assert abs(g.mean() - 0.3) < 0.02

    def test_dirichlet_sums_to_one(self):
        for seed in range(5):
            p = RngStream(seed).dirichlet(0.5, 10)
            assert p.shape == (10,)
            assert abs(p.sum() - 1.0) < 1e-12
            assert np.all(p >= 0)
