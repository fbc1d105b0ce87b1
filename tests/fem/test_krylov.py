"""From-scratch CG solver tests."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.fem import (UniformGrid, GeometricMultigrid, canonical_bc,
                       assemble_stiffness, conjugate_gradient,
                       jacobi_preconditioner, gmg_preconditioner)


def _interior_system(res=17, seed=0):
    grid = UniformGrid(2, res)
    rng = np.random.default_rng(seed)
    nu = np.exp(0.3 * rng.standard_normal(grid.shape))
    bc = canonical_bc(grid)
    k = assemble_stiffness(grid, nu)
    interior = ~bc.mask.ravel()
    k_ii = k[interior][:, interior].tocsr()
    b = (k @ bc.lift().ravel())[interior] * -1.0
    return grid, nu, bc, k_ii, b


class TestPlainCG:
    def test_solves_spd_system(self):
        _, _, _, a, b = _interior_system()
        x, rep = conjugate_gradient(a, b, tol=1e-12)
        assert rep.converged
        np.testing.assert_allclose(a @ x, b, atol=1e-8)

    def test_matches_direct_solve(self):
        from scipy.sparse.linalg import spsolve

        _, _, _, a, b = _interior_system()
        x, _ = conjugate_gradient(a, b, tol=1e-13)
        np.testing.assert_allclose(x, spsolve(a.tocsc(), b), atol=1e-7)

    def test_callable_operator(self):
        _, _, _, a, b = _interior_system()
        x, rep = conjugate_gradient(lambda v: a @ v, b, tol=1e-10)
        assert rep.converged

    def test_warm_start_fewer_iterations(self):
        _, _, _, a, b = _interior_system()
        x, rep_cold = conjugate_gradient(a, b, tol=1e-10)
        _, rep_warm = conjugate_gradient(a, b, x0=x, tol=1e-10)
        assert rep_warm.iterations <= 1

    def test_history_starts_at_the_residual_of_x0(self):
        from scipy.sparse.linalg import spsolve

        _, _, _, a, b = _interior_system()
        x0 = np.random.default_rng(1).standard_normal(b.size)
        _, rep = conjugate_gradient(a, b, x0=x0, tol=1e-10)
        assert rep.residual_history[0] == pytest.approx(
            np.linalg.norm(b - a @ x0) / np.linalg.norm(b), rel=1e-12)
        exact = spsolve(a.tocsc(), b)
        x, rep = conjugate_gradient(a, b, x0=exact, tol=1e-10)
        assert rep.iterations == 0 and rep.converged
        assert rep.residual_history == [rep.residual]
        np.testing.assert_array_equal(x, exact)

    def test_history_starts_at_one_from_zero(self):
        """With no ``x0`` the first residual is ``b`` itself, reported
        relative to ``|b|``: exactly 1; from the direct solution CG runs
        no iteration and reports convergence."""
        from scipy.sparse.linalg import spsolve

        _, _, _, a, b = _interior_system()     # |b| ~ 3.9, not 1
        _, rep = conjugate_gradient(a, b, tol=1e-10)
        assert rep.residual_history[0] == 1.0
        _, rep = conjugate_gradient(a, b, x0=spsolve(a.tocsc(), b),
                                    tol=1e-10)
        assert rep.iterations == 0 and rep.converged

    def test_maxiter_respected(self):
        _, _, _, a, b = _interior_system()
        _, rep = conjugate_gradient(a, b, tol=1e-16, maxiter=3)
        assert not rep.converged
        assert rep.iterations == 3

    def test_non_spd_detected(self):
        a = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, -1.0]]))
        with pytest.raises(RuntimeError):
            conjugate_gradient(a, np.array([0.0, 1.0]))

    def test_residual_history_decreases_overall(self):
        _, _, _, a, b = _interior_system()
        _, rep = conjugate_gradient(a, b, tol=1e-10)
        assert rep.residual_history[-1] < rep.residual_history[0] * 1e-8


class TestPreconditioners:
    def test_jacobi_reduces_iterations(self):
        _, _, _, a, b = _interior_system(res=33)
        # Scale rows/cols to worsen conditioning so Jacobi visibly helps.
        scale = sp.diags(np.linspace(1.0, 40.0, a.shape[0]) ** 0.5)
        a_bad = (scale @ a @ scale).tocsr()
        _, plain = conjugate_gradient(a_bad, b, tol=1e-10)
        _, jac = conjugate_gradient(a_bad, b, tol=1e-10,
                                    preconditioner=jacobi_preconditioner(a_bad))
        assert jac.converged
        assert jac.iterations < plain.iterations

    def test_jacobi_validates_diagonal(self):
        a = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(ValueError):
            jacobi_preconditioner(a)

    def test_gmg_preconditioner_near_resolution_independent(self):
        """MG-preconditioned CG iteration counts stay ~constant in h."""
        iters = []
        for res in (17, 33, 65):
            grid, nu, bc, k_ii, b = _interior_system(res=res)
            gmg = GeometricMultigrid(grid, nu, bc, coarse_size=128)
            _, rep = conjugate_gradient(
                k_ii, b, tol=1e-10,
                preconditioner=gmg_preconditioner(gmg))
            assert rep.converged
            iters.append(rep.iterations)
        assert max(iters) <= 12
        assert max(iters) - min(iters) <= 3

    def test_gmg_preconditioner_beats_plain_cg(self):
        grid, nu, bc, k_ii, b = _interior_system(res=65)
        gmg = GeometricMultigrid(grid, nu, bc, coarse_size=128)
        _, plain = conjugate_gradient(k_ii, b, tol=1e-10)
        _, mgcg = conjugate_gradient(k_ii, b, tol=1e-10,
                                     preconditioner=gmg_preconditioner(gmg))
        assert mgcg.iterations < plain.iterations / 4
