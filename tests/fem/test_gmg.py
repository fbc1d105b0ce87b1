"""Geometric multigrid solver tests (the Sec. 2.3 substrate)."""

import numpy as np
import pytest

from repro.fem import (UniformGrid, GeometricMultigrid, FEMSolver,
                       canonical_bc, prolong_nested, restrict_nested)


@pytest.fixture
def rng():
    return np.random.default_rng(55)


def _variable_nu(grid):
    coords = grid.coordinates()
    return np.exp(0.5 * np.sin(3 * coords[0]) * np.cos(2 * coords[1]))


class TestNestedTransfer:
    def test_prolong_exact_on_linear(self):
        x = np.linspace(0, 1, 5)
        fine = prolong_nested(x)
        np.testing.assert_allclose(fine, np.linspace(0, 1, 9), atol=1e-14)

    def test_value_restriction_preserves_constants(self):
        c = np.full((9, 9), 3.0)
        np.testing.assert_allclose(restrict_nested(c, mode="value"), 3.0)

    def test_dual_restriction_is_adjoint(self, rng):
        """<R r, c> == <r, P c> for the dual-mode restriction."""
        r = rng.standard_normal((9, 9))
        c = rng.standard_normal((5, 5))
        lhs = float((restrict_nested(r, mode="dual") * c).sum())
        rhs = float((r * prolong_nested(c)).sum())
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_even_size_raises(self):
        with pytest.raises(ValueError):
            restrict_nested(np.zeros((8, 8)))

    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError):
            restrict_nested(np.zeros((5, 5)), mode="nope")


class TestGMGSolver:
    @pytest.mark.parametrize("cycle", ["v", "w", "f"])
    def test_matches_direct_2d(self, cycle):
        grid = UniformGrid(2, 33)
        bc = canonical_bc(grid)
        nu = _variable_nu(grid)
        ref = FEMSolver(grid).solve(nu, bc, method="direct")
        gmg = GeometricMultigrid(grid, nu, bc, coarse_size=128)
        u = gmg.solve(tol=1e-10, cycle=cycle)
        assert gmg.last_report.converged
        assert np.abs(u - ref).max() < 1e-8

    def test_matches_direct_3d(self):
        grid = UniformGrid(3, 9)
        bc = canonical_bc(grid)
        nu = _variable_nu(grid)
        ref = FEMSolver(grid).solve(nu, bc, method="direct")
        gmg = GeometricMultigrid(grid, nu, bc, coarse_size=130)
        u = gmg.solve(tol=1e-10)
        assert np.abs(u - ref).max() < 1e-8

    def test_iteration_count_resolution_independent(self):
        """Textbook multigrid: cycles to converge ~constant in h."""
        iters = []
        for res in (17, 33, 65):
            grid = UniformGrid(2, res)
            bc = canonical_bc(grid)
            gmg = GeometricMultigrid(grid, _variable_nu(grid), bc,
                                     coarse_size=128)
            gmg.solve(tol=1e-9)
            iters.append(gmg.last_report.iterations)
        assert max(iters) - min(iters) <= 4
        assert max(iters) <= 20

    def test_residual_history_monotone(self):
        grid = UniformGrid(2, 33)
        bc = canonical_bc(grid)
        gmg = GeometricMultigrid(grid, _variable_nu(grid), bc, coarse_size=128)
        gmg.solve(tol=1e-9)
        h = gmg.last_report.residual_history
        assert all(b < a for a, b in zip(h, h[1:]))

    def test_w_cycle_converges_at_least_as_fast(self):
        grid = UniformGrid(2, 33)
        bc = canonical_bc(grid)
        gmg = GeometricMultigrid(grid, _variable_nu(grid), bc, coarse_size=128)
        gmg.solve(tol=1e-9, cycle="v")
        v_iters = gmg.last_report.iterations
        gmg.solve(tol=1e-9, cycle="w")
        w_iters = gmg.last_report.iterations
        assert w_iters <= v_iters + 1

    @pytest.mark.parametrize("cycle", ["v", "w", "f"])
    def test_cycle_visits_levels_in_the_training_schedule_order(
            self, cycle, monkeypatch):
        """Paper Fig. 3 has one definition: the solver visits levels in the
        order ``cycle_levels`` gives the training schedule (1 = finest)."""
        from repro.multigrid import cycle_levels

        grid = UniformGrid(2, 33)
        gmg = GeometricMultigrid(grid, _variable_nu(grid), canonical_bc(grid),
                                 coarse_size=30)
        assert gmg.num_levels == 4
        visits = []
        smooth, coarse_solve = gmg._smooth, gmg._coarse_solve

        def recording_smooth(level, *args):
            visits.append(1 + [l is level for l in gmg.levels].index(True))
            return smooth(level, *args)

        def recording_coarse_solve(b):
            visits.append(gmg.num_levels)
            return coarse_solve(b)

        monkeypatch.setattr(gmg, "_smooth", recording_smooth)
        monkeypatch.setattr(gmg, "_coarse_solve", recording_coarse_solve)
        gmg.solve(cycle=cycle, max_cycles=1)
        merged = [v for i, v in enumerate(visits) if i == 0 or v != visits[i - 1]]
        assert merged == cycle_levels(cycle, gmg.num_levels)

    def test_unknown_cycle_raises(self):
        grid = UniformGrid(2, 9)
        gmg = GeometricMultigrid(grid, np.ones(grid.shape), canonical_bc(grid))
        with pytest.raises(ValueError):
            gmg.solve(cycle="x")

    def test_level_count(self):
        grid = UniformGrid(2, 33)
        gmg = GeometricMultigrid(grid, np.ones(grid.shape),
                                 canonical_bc(grid), coarse_size=30)
        # 33 -> 17 -> 9 -> 5 (25 nodes < 30 stops there)
        assert [l.grid.resolution for l in gmg.levels] == [33, 17, 9, 5]

    def test_max_levels_respected(self):
        grid = UniformGrid(2, 33)
        gmg = GeometricMultigrid(grid, np.ones(grid.shape),
                                 canonical_bc(grid), max_levels=2)
        assert gmg.num_levels == 2

    def test_dirichlet_values_exact(self):
        grid = UniformGrid(2, 17)
        bc = canonical_bc(grid)
        gmg = GeometricMultigrid(grid, _variable_nu(grid), bc)
        u = gmg.solve(tol=1e-8)
        np.testing.assert_allclose(u[0], 1.0, atol=1e-14)
        np.testing.assert_allclose(u[-1], 0.0, atol=1e-14)

    def test_warm_start(self):
        grid = UniformGrid(2, 17)
        bc = canonical_bc(grid)
        nu = _variable_nu(grid)
        gmg = GeometricMultigrid(grid, nu, bc)
        u0 = gmg.solve(tol=1e-6)
        gmg.solve(tol=1e-10, x0=u0)
        warm_iters = gmg.last_report.iterations
        gmg.solve(tol=1e-10)
        cold_iters = gmg.last_report.iterations
        assert warm_iters <= cold_iters
