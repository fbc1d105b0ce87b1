"""FEM solver tests: BCs, manufactured solutions, convergence order."""

import numpy as np
import pytest

from repro.fem import UniformGrid, FEMSolver, DirichletBC, canonical_bc


class TestDirichletBC:
    def test_canonical_masks(self):
        grid = UniformGrid(2, 5)
        bc = canonical_bc(grid)
        assert bc.mask[0].all() and bc.mask[-1].all()
        assert not bc.mask[1:-1].any()
        assert np.all(bc.values[0] == 1.0)
        assert np.all(bc.values[-1] == 0.0)

    def test_indicator_partition(self):
        grid = UniformGrid(3, 4)
        bc = canonical_bc(grid)
        total = bc.interior_indicator() + bc.mask
        np.testing.assert_allclose(total, 1.0)

    def test_lift(self):
        grid = UniformGrid(2, 4)
        bc = canonical_bc(grid)
        lifted = bc.lift()
        assert np.all(lifted[0] == 1.0)
        assert np.all(lifted[1:] == 0.0)

    def test_validation(self):
        mask = np.zeros((3, 3), dtype=bool)
        with pytest.raises(ValueError):
            DirichletBC(mask=mask, values=np.zeros((4, 4)))
        with pytest.raises(TypeError):
            DirichletBC(mask=np.zeros((3, 3)), values=np.zeros((3, 3)))


class TestCanonicalSolves:
    @pytest.mark.parametrize("ndim,res", [(2, 17), (3, 9)])
    def test_constant_nu_linear_profile(self, ndim, res):
        """nu = const: u = 1 - x exactly (it lies in the FE space)."""
        grid = UniformGrid(ndim, res)
        u = FEMSolver(grid).solve(np.ones(grid.shape), canonical_bc(grid))
        x = grid.coordinates()[0]
        np.testing.assert_allclose(u, 1.0 - x, atol=1e-9)

    def test_solution_bounds(self):
        """Maximum principle: solution stays within Dirichlet data range."""
        grid = UniformGrid(2, 17)
        rng = np.random.default_rng(0)
        nu = np.exp(0.5 * rng.standard_normal(grid.shape))
        u = FEMSolver(grid).solve(nu, canonical_bc(grid))
        assert u.min() >= -1e-8 and u.max() <= 1.0 + 1e-8

    def test_cg_matches_direct(self):
        grid = UniformGrid(2, 17)
        X, Y = grid.coordinates()
        nu = np.exp(np.sin(3 * X) * np.cos(2 * Y))
        solver = FEMSolver(grid)
        bc = canonical_bc(grid)
        u_d = solver.solve(nu, bc, method="direct")
        u_cg = solver.solve(nu, bc, method="cg", tol=1e-12)
        np.testing.assert_allclose(u_cg, u_d, atol=1e-8)
        assert solver.last_report.method == "cg"
        assert solver.last_report.iterations > 0

    def test_unknown_method_raises(self):
        grid = UniformGrid(2, 5)
        with pytest.raises(ValueError):
            FEMSolver(grid).solve(np.ones(grid.shape), canonical_bc(grid),
                                  method="magic")


class TestManufacturedSolution:
    def _solve_manufactured(self, res: int) -> float:
        """-u'' = f on the strip with u = sin(pi x) forcing; Dirichlet 0 at
        x faces; f = pi^2 sin(pi x); exact u = sin(pi x) (y-independent,
        zero-flux on y faces is satisfied)."""
        grid = UniformGrid(2, res)
        X, _ = grid.coordinates()
        f = np.pi ** 2 * np.sin(np.pi * X)
        mask = grid.face_mask(0, 0) | grid.face_mask(0, 1)
        bc = DirichletBC(mask=mask, values=np.zeros(grid.shape))
        u = FEMSolver(grid).solve(np.ones(grid.shape), bc, f_nodal=f)
        return float(np.abs(u - np.sin(np.pi * X)).max())

    def test_second_order_convergence(self):
        errs = [self._solve_manufactured(r) for r in (9, 17, 33)]
        rate1 = np.log2(errs[0] / errs[1])
        rate2 = np.log2(errs[1] / errs[2])
        assert rate1 == pytest.approx(2.0, abs=0.3)
        assert rate2 == pytest.approx(2.0, abs=0.3)

    def test_energy_method_matches_solution(self):
        """J(u_fem) <= J(any admissible u): sampled perturbation check."""
        grid = UniformGrid(2, 9)
        rng = np.random.default_rng(4)
        nu = np.exp(0.3 * rng.standard_normal(grid.shape))
        bc = canonical_bc(grid)
        solver = FEMSolver(grid)
        u_star = solver.solve(nu, bc)
        j_star = solver.energy(u_star, nu)
        for _ in range(5):
            pert = rng.standard_normal(grid.shape) * 0.05
            pert[bc.mask] = 0.0  # stay admissible
            assert solver.energy(u_star + pert, nu) >= j_star - 1e-12
