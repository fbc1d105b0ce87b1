"""Reference FEM solvers for the generalized Poisson equation.

Provides the traditional solver the paper compares MGDiffNet against
(Sec. 4.3): Dirichlet-lifted sparse solves via a direct factorization or
Jacobi-preconditioned conjugate gradients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from ..backend import ops as B

from .assembly import assemble_load
from .grid import UniformGrid
from .krylov import conjugate_gradient, jacobi_preconditioner
from .neumann import assemble_neumann_load
from .quadrature import GaussRule
from .stencil import StencilOperator

__all__ = ["DirichletBC", "canonical_bc", "FEMSolver", "SolveReport"]


@dataclass(frozen=True)
class DirichletBC:
    """Dirichlet data: boolean nodal ``mask`` and nodal ``values``.

    Nodes outside the mask are unconstrained (homogeneous Neumann by the
    variational formulation — 'natural' boundary conditions).
    """

    mask: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.mask.shape != self.values.shape:
            raise ValueError("mask and values must share a shape")
        if self.mask.dtype != bool:
            raise TypeError("mask must be boolean")

    def lift(self) -> np.ndarray:
        """Field equal to the BC values on the mask, zero elsewhere."""
        out = np.zeros(self.mask.shape, dtype=np.float64)
        out[self.mask] = self.values[self.mask]
        return out

    def interior_indicator(self) -> np.ndarray:
        """Float characteristic function of the interior (paper's chi_int)."""
        return (~self.mask).astype(np.float64)

    def boundary_indicator(self) -> np.ndarray:
        """Float characteristic function of the Dirichlet set (chi_b)."""
        return self.mask.astype(np.float64)


def canonical_bc(grid: UniformGrid) -> DirichletBC:
    """The paper's benchmark BCs: u(0, .) = 1, u(1, .) = 0, flux-free
    elsewhere (Eqs. 7-9)."""
    mask = grid.face_mask(0, 0) | grid.face_mask(0, 1)
    values = np.zeros(grid.shape, dtype=np.float64)
    values[grid.face_mask(0, 0)] = 1.0
    return DirichletBC(mask=mask, values=values)


@dataclass
class SolveReport:
    """Diagnostics of one FEM solve."""

    method: str
    iterations: int
    residual: float
    n_dofs: int


class FEMSolver:
    """Assemble-and-solve driver for ``-div(nu grad u) = f``.

    Parameters
    ----------
    grid:
        Discretization.
    rule:
        Gauss rule (defaults to 2 points/dim, matching
        :class:`repro.fem.energy.EnergyLoss`).
    """

    def __init__(self, grid: UniformGrid, rule: GaussRule | None = None) -> None:
        self.grid = grid
        self.rule = rule or GaussRule.create(grid.ndim, 2)
        self.last_report: SolveReport | None = None

    def _system(self, nu_nodal: np.ndarray, f_nodal: np.ndarray | None,
                neumann: list | None) -> tuple[StencilOperator, np.ndarray]:
        """The operator ``K(nu)`` and the load vector, fluxes included."""
        op = StencilOperator(self.grid, nu_nodal, self.rule)
        b = assemble_load(self.grid, f_nodal, self.rule)
        if neumann:
            b = b + assemble_neumann_load(self.grid, neumann, None)
        return op, b

    def solve(self, nu_nodal: np.ndarray, bc: DirichletBC,
              f_nodal: np.ndarray | None = None, method: str = "auto",
              tol: float = 1e-10, maxiter: int | None = None,
              neumann: list | None = None) -> np.ndarray:
        """Return the nodal solution field of shape ``grid.shape``.

        ``method``: 'direct' (sparse LU), 'cg' (Jacobi-preconditioned
        conjugate gradients) or 'auto' (direct below 50k interior dofs).
        ``neumann``: optional list of :class:`repro.fem.neumann.NeumannBC`
        flux conditions (zero-flux faces need no entry).
        """
        op, b = self._system(nu_nodal, f_nodal, neumann)
        interior = ~bc.mask.ravel()
        u = bc.lift().ravel()
        rhs_i = (b - op @ u)[interior]
        k_ii = op.to_csr()[interior][:, interior]
        n_int = int(interior.sum())

        if method == "auto":
            method = "direct" if n_int <= 50_000 else "cg"

        if method == "direct":
            x = spla.spsolve(k_ii.tocsc(), rhs_i)
            iters = 1
        elif method == "cg":
            x, report = conjugate_gradient(
                k_ii, rhs_i, tol=tol, maxiter=maxiter,
                preconditioner=jacobi_preconditioner(k_ii))
            if not report.converged:
                raise RuntimeError(
                    f"CG failed to converge ({report.residual:.2e})")
            iters = report.iterations
        else:
            raise ValueError(f"unknown method {method!r}")

        u[interior] += x
        res = float(B.norm(rhs_i - k_ii @ x) / max(B.norm(rhs_i), 1e-30))
        self.last_report = SolveReport(method=method, iterations=iters,
                                       residual=res, n_dofs=n_int)
        return u.reshape(self.grid.shape)

    def energy(self, u_nodal: np.ndarray, nu_nodal: np.ndarray,
               f_nodal: np.ndarray | None = None,
               neumann: list | None = None) -> float:
        """Matrix form of the energy: ``1/2 u^T K u - b^T u``.

        Used by tests to certify that :class:`repro.fem.energy.EnergyLoss`
        (the conv-stencil path) matches the assembled operator exactly.
        """
        op, b = self._system(nu_nodal, f_nodal, neumann)
        return op.energy(u_nodal, b)
