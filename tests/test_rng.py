"""Determinism and statistical sanity of the counter-based streams."""

import hashlib

import numpy as np
import pytest

from fedquant.rng import Purpose, RngStream
from helpers import integers_oracle, raw_draws_oracle, uniform_oracle


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


# counters at the start, past 32 bits and close enough to 2**64 that a draw
# of up to 64 values wraps around
COUNTERS = (0, 2 ** 32, 2 ** 64 - 40)


class TestDrawOracle:
    """Small draws hash in Python ints, larger ones in numpy; both must give
    the bits of the single numpy pass in ``helpers.raw_draws_oracle``."""

    @pytest.mark.parametrize("counter", COUNTERS)
    def test_raw_uniform_and_integers_match_for_every_small_size(self, counter):
        for n in range(1, 65):
            for kind in ("raw", "uniform", "integers"):
                s = RngStream(1729, (4, 99, n))
                s._counter = counter
                if kind == "raw":
                    got, want = s._raw(n), raw_draws_oracle(s._key, counter, n)
                elif kind == "uniform":
                    got, want = s.uniform(n), uniform_oracle(s._key, counter, (n,))
                else:
                    got, want = s.integers(6, n), integers_oracle(s._key, counter, 6, n)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (kind, n)
                assert s._counter == counter + n

    @pytest.mark.parametrize("shape", [(), (1,), (3, 4), (2, 1, 5), (0,), (13,)])
    def test_uniform_shapes_match(self, shape):
        s = RngStream(5, (2,))
        got = s.uniform(shape)
        assert got.shape == shape
        assert got.tobytes() == uniform_oracle(s._key, 0, shape).tobytes()

    def test_consecutive_draws_continue_the_counter(self):
        s = RngStream(3, (1,))
        parts = [s.uniform(n) for n in (1, 12, 13, 2, 64)]
        want = uniform_oracle(RngStream(3, (1,))._key, 0, (92,))
        assert np.concatenate(parts).tobytes() == want.tobytes()


class TestChild:
    """``child`` folds the new path entries into the parent's key."""

    PATHS = [(), (0,), (Purpose.BATCH, 7, 3), (-1, 2 ** 64 + 5), (2 ** 70,)]

    @pytest.mark.parametrize("seed", [0, 7, -3, 2 ** 64 + 1])
    def test_nested_children_match_the_full_path(self, seed):
        for first in self.PATHS:
            for second in self.PATHS:
                via_child = RngStream(seed, (Purpose.NOISE,)).child(*first).child(*second)
                full = (Purpose.NOISE, *first, *second)
                direct = RngStream(seed, full)
                assert via_child.root_seed == direct.root_seed
                assert via_child.path == direct.path == tuple(int(p) for p in full)
                assert via_child._key == direct._key
                assert via_child.uniform(20).tobytes() == direct.uniform(20).tobytes()

    def test_child_starts_a_fresh_counter(self):
        parent = RngStream(2, (1,))
        parent.uniform(5)
        assert parent.child(3).uniform(4).tobytes() == \
            RngStream(2, (1, 3)).uniform(4).tobytes()

    def test_child_constructs_through_init(self, monkeypatch):
        # the benchmark counts stream derivations at RngStream.__init__
        calls = []
        init = RngStream.__init__

        def counting(self, *args, **kwargs):
            calls.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(RngStream, "__init__", counting)
        RngStream(1).child(2).child(3, 4)
        assert len(calls) == 3
