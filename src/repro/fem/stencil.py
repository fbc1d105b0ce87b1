"""The Q1 stiffness operator ``K(nu)`` of ``-div(nu grad u) = f``, written once.

On a uniform grid the assembled matrix *is* a 3^d-point variable-coefficient
stencil: node ``j`` couples only to the nodes ``j - o``, ``o`` in
``{-1, 0, 1}^d``, that share an element with it.  :func:`stencil_matrix`
contracts the element tensors ``S[g, a, b]`` with ν at the Gauss points
into one nodal coefficient array per offset ``o >= 0`` (K is symmetric:
14 of 27 in 3-D), ``C[o][j] = K[j - o, j]``, by slice-adds — no index
arrays, no triplets, no sort.  They are the upper half of a scipy DIA
matrix as they stand; DIA keeps diagonals by *column*, so diagonal ``-o``
is upper row ``o`` from column ``o`` on, a view.

Everything that needs K takes it from :class:`StencilOperator`: assembly
(``assemble_stiffness`` is ``to_csr()``, :func:`full_csr` being the one
full form), the multigrid levels and the FMG ladder (the operator and its
float32 ``astype``; only the coarsest level is converted, for its LU),
``FEMSolver`` (``to_csr()``, ``energy``) and the Krylov solves.  The mat-vec
runs in row blocks on the host's cores — rows ``lo:hi`` are the same data
under offsets shifted by ``lo`` — adding the diagonals in ascending offset
order as scipy's DIA kernel does, so the product is bitwise the full
matrix's.

:func:`apply_stiffness` is the same operator with nothing stored: ``K(nu) u
= D^T diag(nu w) D u`` recomputed from ν on every application, batched, in
one fused kernel that also returns ``1/2 u^T K u`` — the FEM energy loss
(:mod:`repro.fem.energy`) and any residual on a grid whose coefficients do
not fit in memory.  Where they fit, the stored form is the faster one: at
65³ on a 2-core host one float64 ``apply_stiffness`` costs 30–35 ms, the
stored half's split product 4–6 ms in float64 and 1.2–1.7 ms in float32.
"""

from __future__ import annotations

import copy
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import dia_matvec

from ..backend import ops as B
from ..backend.conv_plan import conv_energy, plan_conv
from ..backend.tuning import default_workers
from .basis import (gauss_interp, local_nodes, node_slices, shape_gradients,
                    shape_values)
from .grid import UniformGrid
from .krylov import inner
from .quadrature import GaussRule

__all__ = ["StencilOperator", "apply_stiffness", "element_stiffness_tensors",
           "full_csr", "stencil_matrix"]

# Fewest rows a mat-vec block may have.  Measured on a 2-core host, 3-D
# stencils stored as the upper half, float64 / float32 per product: split
# in two, 33³ = 35 937 rows ties / loses (0.47 / 0.24 -> 0.46 / 0.43 ms),
# 41³ = 68 921 wins (1.06 / 0.48 -> 0.69 / 0.41 ms), 65³ more than
# halves (10.0 / 4.7 -> 5.6 / 1.4 ms).
MIN_BLOCK_ROWS = 32768


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
    """The upper half — diagonals with offset ``>= 0`` — of the symmetric
    matrix ``sum_e sum_g coeff[g, e] * tensors[g, a, b]`` at ``(e + a, e +
    b)``, for symmetric element tensors ``(G, A, A)`` and a Gauss-point
    coefficient ``(G, *E)`` — stiffness with ν, mass with ones.

    Local pair ``(a, b)`` lies on the diagonal ``flat(b) - flat(a)`` for
    every element at once; its entries are added at their column nodes
    ``e + b``, which is where DIA keeps them.  Pairs below the diagonal
    are never formed (:func:`full_csr` mirrors the half).  At resolution 2
    distinct stencil offsets share a flat diagonal (in 2D ``(0, 1)`` and
    ``(1, -1)`` are both +1) but never a column, so they add into one row.
    """
    elems = coeff.shape[1:]
    d, r = len(elems), elems[0] + 1
    nodes = local_nodes(d)
    flat = nodes @ (r ** np.arange(d - 1, -1, -1))
    offsets = sorted({int(fb - fa) for fa in flat for fb in flat if fb >= fa})
    data = np.zeros((len(offsets),) + (r,) * d)
    per_gauss = coeff.reshape(len(coeff), -1)
    for a, fa in enumerate(flat):
        for b, (fb, node) in enumerate(zip(flat, nodes)):
            if fb >= fa:
                data[(offsets.index(fb - fa),) + node_slices(node, r)] += (
                    tensors[:, a, b] @ per_gauss).reshape(elems)
    return sp.dia_matrix((data.reshape(len(offsets), -1), offsets),
                         shape=(r ** d, r ** d))


def full_csr(upper: sp.dia_matrix) -> sp.csr_matrix:
    """The symmetric matrix whose upper half is ``upper`` (offsets ``0 =
    o_0 < o_1 < ...``), as CSR: row ``-o`` of the full DIA is upper row
    ``o`` moved ``o`` columns left."""
    n, offsets = upper.shape[0], upper.offsets
    lower = np.zeros((len(offsets) - 1, n), upper.dtype)
    for row, o, src in zip(lower, offsets[:0:-1], upper.data[:0:-1]):
        row[:n - o] = src[o:]
    return sp.dia_matrix((B.concatenate([lower, upper.data]),
                          B.concatenate([-offsets[:0:-1], offsets])),
                         shape=upper.shape).tocsr()


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

    ``upper`` is K's upper half in DIA form (:func:`stencil_matrix`) and
    ``blocks`` its row blocks, ``(lo, hi, calls)``, one per core the row
    count can keep busy; each call is an ``(offsets, data)`` pair of views
    of ``upper``: the lower diagonals one each, then the upper half whole.
    Vectors are flat or nodal, in the operator's dtype (``astype``).
    """

    def __init__(self, grid: UniformGrid, nu_nodal: np.ndarray,
                 rule: GaussRule | None = None) -> None:
        nu = np.asarray(nu_nodal, dtype=np.float64)
        if nu.shape != grid.shape:
            raise ValueError(f"nu shape {nu.shape} != grid {grid.shape}")
        self.grid = grid
        self.rule = rule or GaussRule.create(grid.ndim, 2)
        self.upper = stencil_matrix(element_stiffness_tensors(grid, self.rule),
                                    gauss_interp(nu, self.rule))
        self._split()

    def _split(self) -> None:
        m = self.upper
        n = m.shape[0]
        k = max(1, min(default_workers(), n // MIN_BLOCK_ROWS))
        bounds = [n * i // k for i in range(k + 1)]
        # Ascending offsets: -o_max .. -o_1, then 0 .. o_max.
        lower = [(-o, row[o:][None])
                 for o, row in zip(m.offsets[:0:-1], m.data[:0:-1])]
        self.blocks = [(lo, hi, [(np.array([o + lo]), data)
                                 for o, data in lower]
                        + [(m.offsets + lo, m.data)])
                       for lo, hi in zip(bounds, bounds[1:])]

    @property
    def shape(self) -> tuple[int, int]:
        return self.upper.shape

    @property
    def dtype(self) -> np.dtype:
        return self.upper.dtype

    def astype(self, dtype) -> StencilOperator:
        """This operator with its coefficients cast to ``dtype``."""
        op = copy.copy(self)
        op.upper = self.upper.astype(dtype)
        op._split()
        return op

    def matvec(self, u: np.ndarray) -> np.ndarray:
        """``K u`` as a flat vector of the operator's dtype."""
        x = np.asarray(u, dtype=self.dtype).ravel()
        if x.size != self.shape[1]:     # the kernel below reads x unchecked
            raise ValueError(f"dimension mismatch: {x.size} values for "
                             f"a {self.shape} operator")
        # Blocks add into slices of one zeroed output, as scipy's ``@``
        # adds into its own (``rows @ x`` per thread cost +4 MB RSS at 65³).
        out = np.zeros(self.shape[0], self.dtype)

        def run(block) -> None:
            lo, hi, calls = block
            y = out[lo:hi]
            for offsets, data in calls:
                dia_matvec(hi - lo, x.size, len(offsets), data.shape[1],
                           offsets, data, x, y)

        if len(self.blocks) == 1:
            run(self.blocks[0])
        else:
            list(_pool.map(run, self.blocks))
        return out

    __matmul__ = matvec

    def diag(self) -> np.ndarray:
        """The main diagonal (the Jacobi smoother's scaling)."""
        return self.upper.diagonal()

    def to_csr(self) -> sp.csr_matrix:
        """K as CSR, for factorizations and row/column slicing."""
        return full_csr(self.upper)

    def energy(self, u: np.ndarray, b: np.ndarray) -> float:
        """Matrix form of the energy, ``1/2 u^T K u - b^T u``."""
        u = np.asarray(u, dtype=np.float64).ravel()
        return 0.5 * inner(u, self.matvec(u)) - inner(b, u)
