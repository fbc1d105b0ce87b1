"""Classic geometric multigrid (GMG) solver for the variable-coefficient
Poisson problem — the numerical-linear-algebra machinery of Sec. 2.3 that
inspires MGDiffNet's training cycles.

Implements rediscretized coarse operators (ν restricted by injection),
damped-Jacobi smoothing, full-weighting restriction / multilinear
prolongation, and V / W / F cycles.  Dirichlet conditions are handled in
residual-correction form: every level solves a homogeneous-Dirichlet error
equation, so corrections vanish on constrained nodes.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

from ..backend import ops as B
from ..backend import realize

from .assembly import assemble_load
from .grid import UniformGrid
from .krylov import inner
from .quadrature import GaussRule
from .solver import DirichletBC
from .stencil import StencilOperator
from .transfer import prolong_nested, restrict_nested

__all__ = ["GeometricMultigrid", "GMGReport", "FMGResult", "full_multigrid_solve"]

COARSE_SIZE = 729

# The coarse-level cycles one cycle makes at every level (paper Fig. 3,
# `repro.multigrid.cycles`): V recurses once, W twice, F into F then V.
_COARSE_VISITS = {"v": "v", "w": "ww", "f": "fv"}


@dataclass
class _Level:
    grid: UniformGrid
    op: StencilOperator
    jacobi: np.ndarray     # omega / diag on interior nodes, 0 on Dirichlet
    dirichlet: np.ndarray  # flat boolean mask


@dataclass
class GMGReport:
    iterations: int
    residual: float
    converged: bool
    residual_history: list[float] = field(default_factory=list)


class GeometricMultigrid:
    """Multigrid solver for ``-div(nu grad u) = f`` with Dirichlet data.

    Parameters
    ----------
    grid:
        Finest grid; ``resolution - 1`` must be divisible by 2 enough times
        to build ``max_levels`` (grids of resolution ``2^k + 1`` coarsen all
        the way down).
    nu_nodal:
        Nodal diffusivity on the finest grid.
    bc:
        Dirichlet boundary conditions (mask must be faces of the cube so
        that it restricts naturally to coarser levels).
    n_smooth:
        (pre, post) damped-Jacobi sweeps.
    omega:
        Jacobi damping (2/3 is optimal for the Laplacian).
    coarse_size:
        Maximum number of nodes for the direct coarsest-level solve.
    """

    def __init__(self, grid: UniformGrid, nu_nodal: np.ndarray, bc: DirichletBC,
                 rule: GaussRule | None = None, n_smooth: tuple[int, int] = (2, 2),
                 omega: float = 2.0 / 3.0, max_levels: int | None = None,
                 coarse_size: int = COARSE_SIZE) -> None:
        self.rule = rule or GaussRule.create(grid.ndim, 2)
        self.n_pre, self.n_post = n_smooth
        self.omega = omega
        self.bc = bc
        self.levels: list[_Level] = []

        nu = np.asarray(nu_nodal, dtype=np.float64)
        mask = bc.mask
        inject = (slice(None, None, 2),) * grid.ndim
        while True:
            op = StencilOperator(grid, nu, self.rule)
            diag, dirichlet = op.diag(), mask.ravel()
            self.levels.append(_Level(
                grid=grid, op=op, dirichlet=dirichlet,
                jacobi=realize(omega * B.where(diag != 0, 1.0 / diag, 0.0)
                               * ~dirichlet)))
            if ((max_levels is not None and len(self.levels) >= max_levels)
                    or grid.num_nodes <= coarse_size or not grid.can_coarsen()
                    or grid.coarsen().resolution < 3):
                break
            grid, nu, mask = grid.coarsen(), nu[inject], mask[inject]

        # Direct solver on the coarsest interior block.
        interior = self._coarse_interior = ~self.levels[-1].dirichlet
        self._coarse_lu = spla.splu(op.to_csr()[interior][:, interior].tocsc())
        self.last_report: GMGReport | None = None

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    # ------------------------------------------------------------------ #
    def _smooth(self, level: _Level, x: np.ndarray | None, b: np.ndarray,
                sweeps: int) -> np.ndarray:
        """``sweeps`` damped-Jacobi sweeps on ``K x = b``; ``x=None`` is
        the zero guess, whose first sweep needs no ``K @ x``."""
        jacobi = B.asarray(level.jacobi)
        if x is None:
            x = jacobi * b if sweeps else np.zeros_like(b)
            sweeps -= 1
        for _ in range(sweeps):
            # The spmv is a realize barrier: under the lazy backend the
            # previous sweep's damped-Jacobi update chain executes here
            # as one fused kernel.
            x = realize(x)
            r = b - level.op @ x
            x = x + jacobi * r
        return realize(x)

    def _coarse_solve(self, b: np.ndarray) -> np.ndarray:
        b = realize(b)          # the LU solver needs a concrete buffer
        x = np.zeros_like(b)
        x[self._coarse_interior] = self._coarse_lu.solve(b[self._coarse_interior])
        return x

    def _cycle(self, li: int, b: np.ndarray, cycle: str) -> np.ndarray:
        """One cycle on the level-``li`` homogeneous-Dirichlet error equation."""
        level = self.levels[li]
        if li == len(self.levels) - 1:
            return self._coarse_solve(b)
        x = self._smooth(level, None, b, self.n_pre)
        r = (b - level.op @ x)
        r *= ~level.dirichlet
        coarse = self.levels[li + 1]
        rc = restrict_nested(r.reshape(level.grid.shape), mode="dual").ravel()
        rc[coarse.dirichlet] = 0.0
        first, *rest = _COARSE_VISITS[cycle]
        ec = self._cycle(li + 1, rc, first)     # the coarse error starts at 0
        for sub_cycle in rest:
            ec = ec + self._cycle(li + 1, rc - coarse.op @ ec, sub_cycle)
        e = prolong_nested(ec.reshape(coarse.grid.shape)).ravel()
        e[level.dirichlet] = 0.0
        return self._smooth(level, x + e, b, self.n_post)

    # ------------------------------------------------------------------ #
    def solve(self, f_nodal: np.ndarray | None = None, tol: float = 1e-9,
              max_cycles: int = 60, cycle: str = "v",
              x0: np.ndarray | None = None) -> np.ndarray:
        """Iterate multigrid cycles to relative residual ``tol``.

        ``cycle``: 'v', 'w' or 'f' (paper Fig. 3).
        """
        if cycle not in _COARSE_VISITS:
            raise ValueError(f"unknown cycle {cycle!r}; choose from "
                             f"{sorted(_COARSE_VISITS)}")
        fine = self.levels[0]
        b = assemble_load(fine.grid, f_nodal, self.rule)
        lift = self.bc.lift().ravel()

        u = lift.copy() if x0 is None else np.asarray(
            x0, dtype=np.float64).ravel().copy()
        u[fine.dirichlet] = lift[fine.dirichlet]

        def residual(v: np.ndarray) -> np.ndarray:
            r = b - fine.op @ v
            r[fine.dirichlet] = 0.0
            return r

        # Reference scale: residual of the plain Dirichlet lift, so that
        # warm starts (x0 near the solution) converge immediately instead
        # of chasing a tolerance relative to their own tiny residual.
        r = residual(lift)
        norm0 = max(math.sqrt(inner(r, r)), 1e-300)
        r = residual(u)
        history = [math.sqrt(inner(r, r)) / norm0]
        it = 0
        while not history[-1] < tol and it < max_cycles:
            it += 1
            u = u + self._cycle(0, r, cycle)
            r = residual(u)
            history.append(math.sqrt(inner(r, r)) / norm0)
        self.last_report = GMGReport(iterations=it, residual=history[-1],
                                     converged=history[-1] < tol,
                                     residual_history=history)
        return u.reshape(fine.grid.shape)


@dataclass
class FMGResult:
    """Per-level record of an FMG solve."""

    resolutions: list[int]
    cycles_per_level: list[int]
    final_residual: float


def full_multigrid_solve(grid: UniformGrid, nu_nodal: np.ndarray,
                         bc: DirichletBC, f_nodal: np.ndarray | None = None,
                         levels: int = 3, tol: float = 1e-9,
                         max_cycles: int = 30
                         ) -> tuple[np.ndarray, FMGResult]:
    """FMG: solve coarse-to-fine, prolonging solutions as initial guesses
    — the numerical analogue of the Half-V training cycle (paper Sec. 2.3/3.1).

    Requires ``grid.resolution - 1`` divisible by ``2**(levels-1)`` so all
    levels nest.  One hierarchy is built; rung ``k`` is solved on its
    ``levels[k:]`` tail.  Returns the fine solution and per-level cycle
    counts — which should be *small on the fine levels* (that is the point).
    """
    coarsest = (grid.resolution - 1) // 2 ** (levels - 1) + 1
    if (grid.resolution - 1) % 2 ** (levels - 1) or coarsest < 3:
        raise ValueError(
            f"resolution {grid.resolution} does not nest {levels} levels")
    gmg = GeometricMultigrid(
        grid, nu_nodal, bc,
        coarse_size=min(COARSE_SIZE, coarsest ** grid.ndim))
    u, cycles, resolutions = None, [], []
    for k in range(levels - 1, -1, -1):
        # Rung k is the same solver on the levels[k:] tail — same levels,
        # same coarsest LU — with the data injected onto its grid.
        inject = (slice(None, None, 2 ** k),) * grid.ndim
        rung = copy.copy(gmg)
        rung.levels = gmg.levels[k:]
        rung.bc = DirichletBC(mask=bc.mask[inject], values=bc.values[inject])
        u = rung.solve(
            None if f_nodal is None else np.asarray(f_nodal)[inject], tol=tol,
            max_cycles=max_cycles, x0=None if u is None else prolong_nested(u))
        cycles.append(rung.last_report.iterations)
        resolutions.append(rung.levels[0].grid.resolution)
    return u, FMGResult(resolutions=resolutions, cycles_per_level=cycles,
                        final_residual=rung.last_report.residual)
