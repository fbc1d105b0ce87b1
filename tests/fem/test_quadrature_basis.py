"""Gauss quadrature and Q1 basis correctness."""

import numpy as np
import pytest

from repro.fem import GaussRule, gauss_legendre_1d, local_nodes, shape_values, shape_gradients


class TestGaussLegendre:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
    def test_weights_sum_to_two(self, n):
        _, w = gauss_legendre_1d(n)
        assert w.sum() == pytest.approx(2.0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_polynomial_exactness(self, n):
        """n-point Gauss integrates degree 2n-1 exactly on [-1, 1]."""
        pts, w = gauss_legendre_1d(n)
        for deg in range(2 * n):
            exact = (1 - (-1) ** (deg + 1)) / (deg + 1)
            assert (w * pts ** deg).sum() == pytest.approx(exact, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_symmetry(self, n):
        pts, w = gauss_legendre_1d(n)
        np.testing.assert_allclose(np.sort(pts), -np.sort(-pts)[::-1] * 1.0)
        np.testing.assert_allclose(sorted(w), sorted(w[::-1]))


class TestGaussRule:
    @pytest.mark.parametrize("ndim,order", [(1, 2), (2, 2), (3, 2), (2, 3)])
    def test_tensor_product_counts(self, ndim, order):
        rule = GaussRule.create(ndim, order)
        assert rule.n_points == order ** ndim
        assert rule.points.shape == (order ** ndim, ndim)

    @pytest.mark.parametrize("ndim", [1, 2, 3])
    def test_measure(self, ndim):
        rule = GaussRule.create(ndim, 2)
        assert rule.weights.sum() == pytest.approx(2.0 ** ndim)

    def test_integrates_multilinear_exactly(self):
        rule = GaussRule.create(2, 2)
        # integral of x*y over [-1,1]^2 is 0; of (1+x)(1+y) is 4.
        f = (1 + rule.points[:, 0]) * (1 + rule.points[:, 1])
        assert (rule.weights * f).sum() == pytest.approx(4.0)


class TestBasis:
    @pytest.mark.parametrize("ndim", [1, 2, 3])
    def test_partition_of_unity(self, ndim):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-1, 1, (10, ndim))
        vals = shape_values(pts)
        np.testing.assert_allclose(vals.sum(axis=1), 1.0, atol=1e-13)

    @pytest.mark.parametrize("ndim", [1, 2, 3])
    def test_gradients_sum_to_zero(self, ndim):
        rng = np.random.default_rng(1)
        pts = rng.uniform(-1, 1, (10, ndim))
        grads = shape_gradients(pts)
        np.testing.assert_allclose(grads.sum(axis=1), 0.0, atol=1e-13)

    @pytest.mark.parametrize("ndim", [1, 2, 3])
    def test_kronecker_delta_at_nodes(self, ndim):
        nodes = local_nodes(ndim)
        ref_coords = 2.0 * nodes - 1.0
        vals = shape_values(ref_coords)
        np.testing.assert_allclose(vals, np.eye(len(nodes)), atol=1e-13)

    def test_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(-0.9, 0.9, (5, 2))
        eps = 1e-6
        grads = shape_gradients(pts)
        for k in range(2):
            shift = np.zeros_like(pts)
            shift[:, k] = eps
            fd = (shape_values(pts + shift) - shape_values(pts - shift)) / (2 * eps)
            np.testing.assert_allclose(grads[:, :, k], fd, atol=1e-8)

    def test_interpolates_multilinear_exactly(self):
        """Q1 reproduces a + b*x + c*y + d*x*y."""
        rng = np.random.default_rng(3)
        a, b, c, d = rng.standard_normal(4)

        def f(x, y):
            return a + b * x + c * y + d * x * y

        nodes = 2.0 * local_nodes(2) - 1.0
        nodal = f(nodes[:, 0], nodes[:, 1])
        pts = rng.uniform(-1, 1, (20, 2))
        interp = shape_values(pts) @ nodal
        np.testing.assert_allclose(interp, f(pts[:, 0], pts[:, 1]), atol=1e-12)
