"""Matrix-free stencil operator and FMG driver tests."""

import numpy as np
import pytest

from repro.fem import (UniformGrid, FEMSolver, assemble_stiffness,
                       canonical_bc)
from repro.fem.stencil import StencilOperator
from repro.fem.gmg import full_multigrid_solve


@pytest.fixture
def rng():
    return np.random.default_rng(202)


class TestStencilOperator:
    @pytest.mark.parametrize("ndim,res", [(2, 9), (3, 5)])
    def test_matches_assembled_matrix(self, rng, ndim, res):
        grid = UniformGrid(ndim, res)
        nu = np.exp(0.3 * rng.standard_normal(grid.shape))
        op = StencilOperator(grid, nu)
        k = assemble_stiffness(grid, nu)
        for _ in range(3):
            v = rng.standard_normal(grid.num_nodes)
            np.testing.assert_allclose(op.matvec(v), k @ v, atol=1e-11)

    def test_linearity(self, rng):
        grid = UniformGrid(2, 8)
        nu = np.exp(0.2 * rng.standard_normal(grid.shape))
        op = StencilOperator(grid, nu)
        v, w = (rng.standard_normal(grid.num_nodes) for _ in range(2))
        np.testing.assert_allclose(op.matvec(2 * v + 3 * w),
                                   2 * op.matvec(v) + 3 * op.matvec(w),
                                   atol=1e-10)

    def test_symmetry(self, rng):
        grid = UniformGrid(2, 7)
        nu = np.exp(0.2 * rng.standard_normal(grid.shape))
        op = StencilOperator(grid, nu)
        v, w = (rng.standard_normal(grid.num_nodes) for _ in range(2))
        assert float(w @ op.matvec(v)) == pytest.approx(
            float(v @ op.matvec(w)), rel=1e-10)

    def test_matrix_free_solve_matches_assembled(self, rng):
        grid = UniformGrid(2, 17)
        nu = np.exp(0.3 * rng.standard_normal(grid.shape))
        bc = canonical_bc(grid)
        ref = FEMSolver(grid).solve(nu, bc, method="direct")
        op = StencilOperator(grid, nu)
        u = op.solve_interior(bc, tol=1e-12)
        np.testing.assert_allclose(u, ref, atol=1e-7)
        assert op.last_report.converged

    def test_shape_validation(self, rng):
        grid = UniformGrid(2, 8)
        with pytest.raises(ValueError):
            StencilOperator(grid, np.ones((4, 4)))


class TestFMG:
    def _problem(self, res=33):
        grid = UniformGrid(2, res)
        x, y = grid.coordinates()
        nu = np.exp(0.5 * np.sin(3 * x) * np.cos(2 * y))
        return grid, nu, canonical_bc(grid)

    def test_matches_direct(self):
        grid, nu, bc = self._problem()
        ref = FEMSolver(grid).solve(nu, bc, method="direct")
        u, res = full_multigrid_solve(grid, nu, bc, levels=3, tol=1e-10)
        assert np.abs(u - ref).max() < 1e-7
        assert res.final_residual < 1e-10

    def test_fine_levels_need_few_cycles(self):
        """The FMG promise: coarse init makes fine solves cheap."""
        grid, nu, bc = self._problem(res=65)
        _, res = full_multigrid_solve(grid, nu, bc, levels=4, tol=1e-9)
        # Finest level converges in no more cycles than a cold start (~10).
        assert res.cycles_per_level[-1] <= 10
        assert res.resolutions == [9, 17, 33, 65]

    def test_fmg_beats_cold_start_on_fine_cycles(self):
        from repro.fem import GeometricMultigrid

        grid, nu, bc = self._problem(res=65)
        _, res = full_multigrid_solve(grid, nu, bc, levels=3, tol=1e-9)
        gmg = GeometricMultigrid(grid, nu, bc)
        gmg.solve(tol=1e-9)
        assert res.cycles_per_level[-1] <= gmg.last_report.iterations

    def test_one_hierarchy_one_operator_per_level(self, monkeypatch):
        """Every rung is solved on the tail of one hierarchy: a 4-level
        FMG builds 4 operators, not one ladder per rung."""
        from repro.fem import gmg

        built = []

        class Counting(gmg.StencilOperator):
            def __init__(self, grid, *args):
                built.append(grid.resolution)
                super().__init__(grid, *args)

        monkeypatch.setattr(gmg, "StencilOperator", Counting)
        grid, nu, bc = self._problem(res=65)
        full_multigrid_solve(grid, nu, bc, levels=4, tol=1e-9)
        assert built == [65, 33, 17, 9]

    def test_non_nesting_raises(self):
        grid = UniformGrid(2, 12)
        with pytest.raises(ValueError):
            full_multigrid_solve(grid, np.ones(grid.shape),
                                 canonical_bc(grid), levels=3)

    def test_with_forcing(self):
        grid, nu, bc = self._problem()
        x = grid.coordinates()[0]
        f = np.sin(np.pi * x)
        ref = FEMSolver(grid).solve(nu, bc, f_nodal=f, method="direct")
        u, _ = full_multigrid_solve(grid, nu, bc, f_nodal=f, levels=3,
                                    tol=1e-10)
        assert np.abs(u - ref).max() < 1e-7
