"""Unit tests for kernels and the power-iteration eigensolver."""

import numpy as np
import pytest

from repro.core import (
    chi_square_kernel,
    linear_kernel,
    make_kernel,
    principal_eigenvector,
    rbf_kernel,
)


class TestKernels:
    def test_linear_is_gram(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose(linear_kernel(x, x), x @ x.T)

    def test_linear_1d_promotes(self):
        assert linear_kernel(np.array([1.0, 0.0]), np.array([[1.0, 0.0]])).shape == (1, 1)

    def test_rbf_diagonal_ones(self):
        x = np.random.default_rng(0).normal(size=(5, 3))
        k = rbf_kernel(x, x, gamma=0.7)
        np.testing.assert_allclose(np.diag(k), 1.0)

    def test_rbf_decays_with_distance(self):
        x = np.array([[0.0], [1.0], [5.0]])
        k = rbf_kernel(x, x, gamma=1.0)
        assert k[0, 1] > k[0, 2]

    def test_rbf_symmetric_psd(self):
        x = np.random.default_rng(1).normal(size=(8, 4))
        k = rbf_kernel(x, x, gamma=0.3)
        np.testing.assert_allclose(k, k.T)
        eigvals = np.linalg.eigvalsh(k)
        assert eigvals.min() > -1e-9

    @pytest.mark.parametrize("rows, cols", [(1, 40), (60, 60), (200, 7)])
    def test_rbf_single_buffer_is_bitwise_the_expression(self, rows, cols):
        """The in-place build returns what the five-temporary expression did."""
        rng = np.random.default_rng(rows)
        y = rng.normal(size=(cols, 9))
        x = y if rows == cols else rng.normal(size=(rows, 9))
        sq = (
            (x**2).sum(axis=1)[:, None]
            - 2.0 * x @ y.T
            + (y**2).sum(axis=1)[None, :]
        )
        expected = np.exp(-0.4 * np.maximum(sq, 0.0))
        assert np.array_equal(rbf_kernel(x, y, gamma=0.4), expected)

    def test_rbf_invalid_gamma(self):
        with pytest.raises(ValueError):
            rbf_kernel(np.zeros((1, 1)), np.zeros((1, 1)), gamma=0.0)

    def test_chi_square_identical_histograms(self):
        x = np.array([[0.2, 0.3, 0.5]])
        np.testing.assert_allclose(chi_square_kernel(x, x), [[1.0]])

    def test_chi_square_rejects_negative(self):
        with pytest.raises(ValueError):
            chi_square_kernel(np.array([[-0.1]]), np.array([[0.1]]))

    def test_chi_square_zero_dims_ok(self):
        x = np.array([[0.0, 1.0]])
        y = np.array([[0.0, 1.0]])
        np.testing.assert_allclose(chi_square_kernel(x, y), [[1.0]])

    def test_make_kernel_factory(self):
        x = np.array([[1.0, 0.0]])
        for name in ("linear", "rbf", "chi_square"):
            fn = make_kernel(name)
            assert fn(x, x).shape == (1, 1)
        with pytest.raises(ValueError):
            make_kernel("bogus")

    def test_make_kernel_rbf_param(self):
        x = np.array([[0.0], [1.0]])
        wide = make_kernel("rbf", gamma=0.1)(x, x)[0, 1]
        narrow = make_kernel("rbf", gamma=10.0)(x, x)[0, 1]
        assert wide > narrow


class TestPrincipalEigenvector:
    def test_known_eigenpair(self):
        m = np.array([[2.0, 0.0], [0.0, 1.0]])
        vec, val = principal_eigenvector(m)
        assert val == pytest.approx(2.0, rel=1e-6)
        np.testing.assert_allclose(np.abs(vec), [1.0, 0.0], atol=1e-5)

    def test_matches_numpy_on_random_psd(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(6, 6))
        m = a @ a.T
        vec, val = principal_eigenvector(m)
        w, v = np.linalg.eigh(m)
        assert val == pytest.approx(w[-1], rel=1e-6)
        reference = v[:, -1]
        if reference[np.argmax(np.abs(reference))] < 0:
            reference = -reference
        np.testing.assert_allclose(np.abs(vec @ reference), 1.0, atol=1e-6)

    def test_nonnegative_matrix_gives_nonnegative_vector(self):
        rng = np.random.default_rng(3)
        m = rng.random((10, 10))
        m = 0.5 * (m + m.T)
        vec, _ = principal_eigenvector(m)
        assert (vec >= -1e-8).all()  # Perron-Frobenius

    def test_zero_matrix(self):
        vec, val = principal_eigenvector(np.zeros((4, 4)))
        assert val == 0.0
        np.testing.assert_allclose(vec, 0.0)

    def test_validates_shape(self):
        with pytest.raises(ValueError):
            principal_eigenvector(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            principal_eigenvector(np.zeros((0, 0)))
