"""Sparse assembly: operator algebra properties."""

import numpy as np
import pytest

from repro.fem import (UniformGrid, GaussRule, assemble_stiffness,
                       assemble_load, interpolate_to_gauss,
                       canonical_bc)


@pytest.fixture
def rng():
    return np.random.default_rng(9)


def _nu(grid, rng):
    return np.exp(0.3 * rng.standard_normal(grid.shape))


class TestStiffness:
    @pytest.mark.parametrize("ndim,res", [(2, 7), (3, 4)])
    def test_symmetry(self, rng, ndim, res):
        grid = UniformGrid(ndim, res)
        k = assemble_stiffness(grid, _nu(grid, rng))
        assert abs(k - k.T).max() < 1e-12

    @pytest.mark.parametrize("ndim,res", [(2, 7), (3, 4)])
    def test_constants_in_nullspace(self, rng, ndim, res):
        """K @ 1 == 0: pure Neumann operator annihilates constants."""
        grid = UniformGrid(ndim, res)
        k = assemble_stiffness(grid, _nu(grid, rng))
        np.testing.assert_allclose(k @ np.ones(grid.num_nodes), 0.0, atol=1e-12)

    def test_positive_semidefinite(self, rng):
        grid = UniformGrid(2, 6)
        k = assemble_stiffness(grid, _nu(grid, rng)).toarray()
        eigs = np.linalg.eigvalsh(k)
        assert eigs.min() > -1e-10

    def test_interior_block_positive_definite(self, rng):
        grid = UniformGrid(2, 6)
        k = assemble_stiffness(grid, _nu(grid, rng))
        interior = ~canonical_bc(grid).mask.ravel()
        kii = k[interior][:, interior].toarray()
        assert np.linalg.eigvalsh(kii).min() > 0

    def test_laplacian_stencil_2d(self):
        """nu=1 on a uniform grid gives the classic FEM 9-point stencil
        with row diagonal 8/3 (for h-independent 2D scaling)."""
        grid = UniformGrid(2, 5)
        k = assemble_stiffness(grid, np.ones(grid.shape)).toarray()
        center = np.ravel_multi_index((2, 2), grid.shape)
        assert k[center, center] == pytest.approx(8.0 / 3.0)

    def test_scaling_with_nu(self, rng):
        """K is linear in nu: K(2 nu) == 2 K(nu)."""
        grid = UniformGrid(2, 5)
        nu = _nu(grid, rng)
        k1 = assemble_stiffness(grid, nu)
        k2 = assemble_stiffness(grid, 2.0 * nu)
        assert abs(k2 - 2.0 * k1).max() < 1e-12


class TestLoad:
    def test_load_of_one_integrates_to_volume(self):
        grid = UniformGrid(2, 8)
        b = assemble_load(grid, np.ones(grid.shape))
        assert b.sum() == pytest.approx(1.0)

    def test_load_none_is_zero(self):
        grid = UniformGrid(2, 4)
        assert np.all(assemble_load(grid, None) == 0)

    def test_load_linear_in_f(self, rng):
        grid = UniformGrid(2, 6)
        f = rng.standard_normal(grid.shape)
        np.testing.assert_allclose(assemble_load(grid, 3.0 * f),
                                   3.0 * assemble_load(grid, f), atol=1e-12)


class TestGaussInterpolation:
    def test_constant_field(self):
        grid = UniformGrid(2, 5)
        rule = GaussRule.create(2, 2)
        out = interpolate_to_gauss(grid, np.full(grid.shape, 3.0), rule)
        np.testing.assert_allclose(out, 3.0)
        assert out.shape == (4, 4, 4)

    def test_linear_field_exact(self):
        grid = UniformGrid(2, 5)
        rule = GaussRule.create(2, 2)
        X, Y = grid.coordinates()
        field = 2 * X + 3 * Y
        out = interpolate_to_gauss(grid, field, rule)
        # Gauss point physical coordinates:
        h = grid.h
        for g, (xi, eta) in enumerate(rule.points):
            ex = np.add.outer(
                (np.arange(4) + (xi + 1) / 2) * h * 2,
                (np.arange(4) + (eta + 1) / 2) * h * 3)
            np.testing.assert_allclose(out[g], ex, atol=1e-12)

    def test_shape_mismatch_raises(self):
        grid = UniformGrid(2, 5)
        rule = GaussRule.create(2, 2)
        with pytest.raises(ValueError):
            interpolate_to_gauss(grid, np.zeros((4, 4)), rule)
