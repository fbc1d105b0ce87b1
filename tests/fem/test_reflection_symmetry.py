"""Reflection symmetry of the canonical boundary-value problem.

The Dirichlet data sit on the two faces normal to x (u=1 at x=0, u=0 at
x=1); every other face is natural.  Reflecting ν across y (and z in 3D)
therefore reflects the solution, while reflecting across x swaps the
Dirichlet faces and changes the problem.
"""

import numpy as np
import pytest

from repro.fem import FEMSolver, UniformGrid, canonical_bc
from repro.fem.gmg import GeometricMultigrid


def _nu(grid, seed, scale=0.4):
    rng = np.random.default_rng(seed)
    return np.exp(scale * rng.standard_normal(grid.shape))


class TestPhysicsEquivariance:
    def test_fem_solution_equivariant_under_y_reflection(self):
        """solve(flip_y nu) == flip_y solve(nu)."""
        grid = UniformGrid(2, 17)
        nu = _nu(grid, 7)
        bc = canonical_bc(grid)
        solver = FEMSolver(grid)
        u = solver.solve(nu, bc)
        u_flipped_input = solver.solve(nu[:, ::-1].copy(), bc)
        np.testing.assert_allclose(u_flipped_input, u[:, ::-1], atol=1e-9)

    def test_x_reflection_is_not_a_symmetry(self):
        """Flipping the Dirichlet axis moves u=1 to the other face."""
        grid = UniformGrid(2, 17)
        nu = _nu(grid, 8)
        bc = canonical_bc(grid)
        solver = FEMSolver(grid)
        u = solver.solve(nu, bc)
        u_flip = solver.solve(nu[::-1].copy(), bc)
        assert np.abs(u_flip - u[::-1]).max() > 0.05

    def test_3d_equivariance_both_axes(self):
        grid = UniformGrid(3, 9)
        nu = _nu(grid, 9, scale=0.3)
        bc = canonical_bc(grid)
        solver = FEMSolver(grid)
        u = solver.solve(nu, bc)
        u_yz = solver.solve(nu[:, ::-1, ::-1].copy(), bc)
        np.testing.assert_allclose(u_yz, u[:, ::-1, ::-1], atol=1e-8)

    @pytest.mark.parametrize("axis", [1, 2])
    def test_3d_equivariance_single_axis(self, axis):
        grid = UniformGrid(3, 9)
        nu = _nu(grid, 10 + axis, scale=0.3)
        bc = canonical_bc(grid)
        solver = FEMSolver(grid)
        u = solver.solve(nu, bc)
        u_flip = solver.solve(np.flip(nu, axis).copy(), bc)
        np.testing.assert_allclose(u_flip, np.flip(u, axis), atol=1e-8)


class TestGMGEquivariance:
    """The multigrid solver converges to the reflected field too: its
    transfers and smoothers treat the two y faces alike."""

    @pytest.mark.parametrize("ndim, n", [(2, 33), (3, 17)])
    def test_gmg_solution_equivariant_under_y_reflection(self, ndim, n):
        grid = UniformGrid(ndim, n)
        nu = _nu(grid, 20 + ndim, scale=0.3)
        bc = canonical_bc(grid)
        u = GeometricMultigrid(grid, nu, bc).solve(tol=1e-10)
        u_flip = GeometricMultigrid(
            grid, np.flip(nu, 1).copy(), bc).solve(tol=1e-10)
        np.testing.assert_allclose(u_flip, np.flip(u, 1), atol=1e-7)
