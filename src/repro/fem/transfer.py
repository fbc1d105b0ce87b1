"""Nested factor-2 grid transfer operators for the geometric multigrid
solver (Sec. 2.3 substrate).

These operate on nodal arrays of resolution ``2^k + 1`` where coarse nodes
coincide with even-index fine nodes.  Prolongation is multilinear
interpolation; restriction is its transpose.
"""

from __future__ import annotations

import numpy as np

from ..backend import ops as B

__all__ = ["prolong_nested", "restrict_nested"]


def _prolong_axis(arr: np.ndarray, axis: int) -> np.ndarray:
    """Linear interpolation along one axis: n -> 2n-1 points."""
    arr = B.moveaxis(arr, axis, 0)
    n = arr.shape[0]
    out = np.zeros((2 * n - 1,) + arr.shape[1:], dtype=arr.dtype)
    out[::2] = arr
    out[1::2] = 0.5 * (arr[:-1] + arr[1:])
    return B.moveaxis(out, 0, axis)


def _restrict_axis(arr: np.ndarray, axis: int) -> np.ndarray:
    """Transpose of :func:`_prolong_axis` along one axis: 2n-1 -> n points.

    coarse[j] = fine[2j] + fine[2j-1]/2 + fine[2j+1]/2 (half-stencil at the
    ends): the raw adjoint P^T, which restricts FEM residuals (dual vectors
    carrying an h^d factor).
    """
    arr = B.moveaxis(arr, axis, 0)
    nf = arr.shape[0]
    if nf % 2 == 0:
        raise ValueError(f"fine axis size {nf} must be odd (2^k + 1 grids)")
    nc = (nf - 1) // 2 + 1
    out = np.zeros((nc,) + arr.shape[1:], dtype=arr.dtype)
    out[:] = arr[::2]
    out[:-1] += 0.5 * arr[1::2]
    out[1:] += 0.5 * arr[1::2]
    return B.moveaxis(out, 0, axis)


def prolong_nested(coarse: np.ndarray) -> np.ndarray:
    """Multilinear prolongation of a nodal array to the nested finer grid."""
    out = coarse
    for ax in range(coarse.ndim):
        out = _prolong_axis(out, ax)
    return out


def restrict_nested(fine: np.ndarray) -> np.ndarray:
    """Restriction of a FEM residual to the nested coarser grid: the
    unscaled adjoint P^T, ``<restrict(r), c> == <r, prolong(c)>`` exactly.
    """
    out = fine
    for ax in range(fine.ndim):
        out = _restrict_axis(out, ax)
    return out
