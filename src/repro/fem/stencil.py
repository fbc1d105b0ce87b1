"""The Q1 stiffness operator ``K(nu)`` of ``-div(nu grad u) = f``, written once.

On a uniform grid the assembled matrix *is* a 3^d-point variable-coefficient
stencil: node ``j`` couples only to the nodes ``j - o``, ``o`` in
``{-1, 0, 1}^d``, that share an element with it.  :func:`stencil_matrix`
contracts the element tensors ``S[g, a, b]`` with ν at the Gauss points
into one nodal coefficient array per offset, ``C[o][j] = K[j - o, j]``
(``= K[j, j - o]``, K being symmetric), by slice-adds — no index arrays, no
triplets, no sort.  Those arrays are the data of a scipy DIA matrix as they
stand, and its mat-vec sums each row in column order exactly as CSR does.

Everything that needs K takes it from :class:`StencilOperator`: assembly
(``assemble_stiffness`` is ``to_csr()``), the multigrid levels and the FMG
ladder (the operator itself; only the coarsest level is converted, for its
LU), ``FEMSolver`` (``to_csr()``, ``energy``) and the CG that never forms a
CSR (``solve_interior``).  It stores all 3^d coefficients per node, and its
mat-vec runs in row blocks on the host's cores: DIA keeps the coefficients
by *column*, so rows ``lo:hi`` are the same data under offsets shifted by
``lo`` — a view, not a copy — and each block sums its rows in the order
the whole matrix does, so the product is bitwise ``matrix @ x``.

:func:`apply_stiffness` is the same operator with nothing stored: ``K(nu) u
= D^T diag(nu w) D u`` recomputed from ν on every application, batched, in
one fused kernel that also returns ``1/2 u^T K u`` — the FEM energy loss
(:mod:`repro.fem.energy`) and any residual on a grid whose coefficients do
not fit in memory.  Where they fit, the stored form is the faster one: at
65³ in float64 on a 2-core host one ``apply_stiffness`` costs 30–35 ms,
the stored DIA product 9 ms and its row-block split 5–6 ms.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import dia_matvec

from ..backend import ops as B
from ..backend.conv_plan import conv_energy, plan_conv
from ..backend.tuning import default_workers
from .basis import gauss_interp, local_nodes, shape_gradients, shape_values
from .grid import UniformGrid
from .krylov import conjugate_gradient
from .quadrature import GaussRule

__all__ = ["StencilOperator", "apply_stiffness", "element_stiffness_tensors",
           "stencil_matrix"]

# Fewest rows a mat-vec block may have.  Measured on a 2-core host, 3-D
# stencils: splitting 33³ = 35 937 rows in two wins (0.47 -> 0.40 ms),
# 17³ = 4 913 loses (0.06 -> 0.10 ms), 65³ nearly halves (9.6 -> 5.8 ms).
MIN_BLOCK_ROWS = 16384


def _new_pool() -> None:
    """The mat-vec threads (scipy's DIA kernel releases the GIL), started
    by the first split product.  A forked child, which inherits the pool
    but none of its threads, gets a new one."""
    global _pool
    _pool = ThreadPoolExecutor(default_workers(),
                               thread_name_prefix="stencil-matvec")


_new_pool()
os.register_at_fork(after_in_child=_new_pool)


def element_stiffness_tensors(grid: UniformGrid, rule: GaussRule) -> np.ndarray:
    """Per-Gauss-point local stiffness tensors ``S[g, a, b]``.

    ``K^e[a, b] = sum_g nu_g[e] * S[g, a, b]`` where

        S[g, a, b] = w_g * detJ * (2/h)^2 * grad N_a(xi_g) . grad N_b(xi_g)

    with ``detJ = (h/2)^d`` for the affine map to a cube of side ``h``.
    """
    h = grid.h
    grads = shape_gradients(rule.points)  # (G, A, d) in reference coords
    det_j = (h / 2.0) ** grid.ndim
    scale = (2.0 / h) ** 2
    dots = B.einsum("gak,gbk->gab", grads, grads)
    return rule.weights[:, None, None] * det_j * scale * dots


def stencil_matrix(tensors: np.ndarray, coeff: np.ndarray) -> sp.dia_matrix:
    """The matrix ``sum_e sum_g coeff[g, e] * tensors[g, a, b]`` at
    ``(e + a, e + b)``, for element tensors ``(G, A, A)`` and a Gauss-point
    coefficient ``(G, *E)`` — stiffness with ν, mass with ones.

    Local pair ``(a, b)`` lies on the diagonal ``flat(b) - flat(a)`` for
    every element at once; its entries are added at their column nodes
    ``e + b``, which is where DIA keeps them.  At resolution 2 distinct
    stencil offsets share a flat diagonal (in 2D ``(0, 1)`` and ``(1, -1)``
    are both +1) but never a column, so they add into one row.
    """
    elems = coeff.shape[1:]
    d, r = len(elems), elems[0] + 1
    nodes = local_nodes(d)
    flat = nodes @ (r ** np.arange(d - 1, -1, -1))
    diagonals = sorted({int(fb - fa) for fa in flat for fb in flat})
    data = np.zeros((len(diagonals),) + (r,) * d)
    per_gauss = coeff.reshape(len(coeff), -1)
    for a, fa in enumerate(flat):
        for b, (fb, node) in enumerate(zip(flat, nodes)):
            columns = tuple(slice(o, o + r - 1) for o in node)
            data[(diagonals.index(fb - fa),) + columns] += (
                tensors[:, a, b] @ per_gauss).reshape(elems)
    return sp.dia_matrix((data.reshape(len(diagonals), -1), diagonals),
                         shape=(r ** d, r ** d))


def apply_stiffness(u: np.ndarray, nu: np.ndarray, rule: GaussRule, *,
                    adjoint: bool = True
                    ) -> tuple[np.ndarray, np.ndarray | None]:
    """Matrix-free ``K(nu) u`` for a batch of nodal fields.

    ``u`` (floating) and ``nu`` (cast to ``u``'s dtype) have shape ``(N,
    *grid.shape)`` on the unit hypercube.  Returns the per-sample ``1/2 u^T
    K(nu) u`` (float64, summed over Gauss points, where every term is
    non-negative) and ``K(nu) u`` shaped like ``u`` — ``None`` with
    ``adjoint=False``, which skips the ``D^T`` half of the work.

    Local nodes run in C order of their offsets, so the ``2^d`` columns of
    the gradient table ``D (G*d, 2^d)`` (physical scale ``2/h``) and of
    the ν interpolation ``(G, 2^d)`` (``w_g detJ`` folded in) are the taps
    of two convolution kernels; nothing of size ``G*d`` per element is
    ever stored.
    """
    d = rule.points.shape[1]
    if (u.ndim != d + 1 or len(set(u.shape[1:])) != 1 or u.shape[1] < 2
            or not np.issubdtype(u.dtype, np.floating)):
        raise ValueError(
            f"u must be a floating (N, {'x'.join('R' * d)}) array with "
            f"R >= 2 for a {d}-d rule, got {u.dtype} {u.shape}")
    if nu.shape != u.shape:
        raise ValueError(f"nu shape {nu.shape} != u shape {u.shape}")
    h = 1.0 / (u.shape[1] - 1)
    g = rule.n_points
    dker = ((2.0 / h) * B.moveaxis(shape_gradients(rule.points), 1, 2)
            ).reshape((g * d, 1) + (2,) * d)
    vker = ((rule.weights * (h / 2.0) ** d)[:, None]
            * shape_values(rule.points)).reshape((g, 1) + (2,) * d)
    plan = plan_conv((len(u), 1) + u.shape[1:], dker.shape, (1,) * d,
                     (0,) * d, u.dtype)
    energy, ku = conv_energy(plan, u[:, None], dker, nu[:, None], vker,
                             adjoint=adjoint)
    return energy, None if ku is None else ku[:, 0]


class StencilOperator:
    """``K(nu)`` for fixed nodal diffusivity: linear, symmetric positive
    semi-definite (definite on the interior of a Dirichlet problem).

    Parameters
    ----------
    grid, nu_nodal, rule:
        Uniform grid, nodal ν of shape ``grid.shape`` and the Gauss rule
        (2 points per dimension by default) ν is interpolated to.

    ``matrix`` is the stencil in DIA form and ``blocks`` its row blocks,
    ``(lo, rows lo:hi of matrix)``, one per core the row count can keep
    busy; vectors are flat or nodal.
    """

    def __init__(self, grid: UniformGrid, nu_nodal: np.ndarray,
                 rule: GaussRule | None = None) -> None:
        nu = np.asarray(nu_nodal, dtype=np.float64)
        if nu.shape != grid.shape:
            raise ValueError(f"nu shape {nu.shape} != grid {grid.shape}")
        self.grid = grid
        self.rule = rule or GaussRule.create(grid.ndim, 2)
        m = self.matrix = stencil_matrix(
            element_stiffness_tensors(grid, self.rule),
            gauss_interp(nu, self.rule))
        n = m.shape[0]
        k = max(1, min(default_workers(), n // MIN_BLOCK_ROWS))
        bounds = [n * i // k for i in range(k + 1)]
        self.blocks = [(lo, sp.dia_matrix((m.data, m.offsets + lo),
                                          shape=(hi - lo, n)))
                       for lo, hi in zip(bounds, bounds[1:])]

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    def matvec(self, u: np.ndarray) -> np.ndarray:
        """``K u`` as a flat vector."""
        x = np.asarray(u, dtype=np.float64).ravel()
        if len(self.blocks) == 1:
            return self.matrix @ x
        if x.size != self.shape[1]:     # the kernel below reads x unchecked
            raise ValueError(f"dimension mismatch: {x.size} values for "
                             f"a {self.shape} operator")
        # Blocks add into slices of one zeroed output, as ``matrix @ x``
        # adds into its own (``rows @ x`` per thread cost +4 MB RSS at 65³).
        out = np.zeros(self.shape[0])

        def run(block: tuple[int, sp.dia_matrix]) -> None:
            lo, rows = block
            dia_matvec(*rows.shape, len(rows.offsets), rows.data.shape[1],
                       rows.offsets, rows.data, x, out[lo:lo + rows.shape[0]])

        list(_pool.map(run, self.blocks))
        return out

    __matmul__ = matvec

    def diag(self) -> np.ndarray:
        """The main diagonal (the Jacobi smoother's scaling)."""
        return self.matrix.diagonal()

    def to_csr(self) -> sp.csr_matrix:
        """K as CSR, for factorizations and row/column slicing."""
        return self.matrix.tocsr()

    def energy(self, u: np.ndarray, b: np.ndarray) -> float:
        """Matrix form of the energy, ``1/2 u^T K u - b^T u``."""
        u = np.asarray(u, dtype=np.float64).ravel()
        return float(0.5 * u @ self.matvec(u) - b @ u)

    # ------------------------------------------------------------------ #
    def solve_interior(self, bc, f_nodal: np.ndarray | None = None,
                       tol: float = 1e-10, maxiter: int | None = None):
        """CG solve of the Dirichlet-lifted system on the stencil itself.

        Returns the nodal field; K is never converted to CSR.
        """
        from .assembly import assemble_load

        interior = ~bc.mask.ravel()
        u = bc.lift().ravel()
        b = assemble_load(self.grid, f_nodal, self.rule)
        rhs = (b - self.matvec(u))[interior]

        def apply_interior(v: np.ndarray) -> np.ndarray:
            full = np.zeros(self.grid.num_nodes)
            full[interior] = v
            return self.matvec(full)[interior]

        x, self.last_report = conjugate_gradient(apply_interior, rhs, tol=tol,
                                                 maxiter=maxiter)
        if not self.last_report.converged:
            raise RuntimeError("matrix-free CG did not converge "
                               f"({self.last_report.residual:.2e})")
        u[interior] += x
        return u.reshape(self.grid.shape)
