"""Tensor substrate checks: the checked ``mlp.matmul`` against a naive
oracle, its shape and finiteness guards, and ``ParamSet.flatten`` order."""

import numpy as np
import pytest

from fedquant.errors import NumericError, ShapeError
from fedquant.rng import RngStream
from fedquant.mlp import ParamSet, matmul


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


class TestHelpers:
    def test_check_finite(self):
        with pytest.raises(NumericError):
            matmul(np.array([[1e200]]), np.array([[1e200]]))
        with pytest.raises(NumericError):
            matmul(np.array([[1.0, np.nan]]), np.ones((2, 1)))

    def test_paramset_flatten_concatenates_row_major(self):
        params = ParamSet([(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([5.0, 6.0]))])
        assert np.array_equal(params.flatten(),
                              np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]))
