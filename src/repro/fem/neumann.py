"""Non-homogeneous Neumann (flux) boundary conditions.

The paper's formulation (Eqs. 3-5, Sec. 2.2.1) admits prescribed fluxes
``du/dn = h`` on ``Gamma_N``; its benchmark problem uses ``h = 0`` (which
is 'natural' and needs no code).  This module adds the general surface
term for hypercube faces:

* the load contribution ``b_i += int_{Gamma_N} h N_i dS`` for the
  assembled system, and
* the energy contribution ``-int_{Gamma_N} h u dS`` for the
  differentiable loss,

both with face Gauss quadrature, and both consistent with each other
(gradient of the energy term == the load vector, verified in tests).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..autograd import Tensor
from .assembly import assemble_load
from .grid import UniformGrid
from .quadrature import GaussRule

__all__ = ["NeumannBC", "assemble_neumann_load", "neumann_energy"]


@dataclass(frozen=True)
class NeumannBC:
    """Prescribed flux on one face of the unit hypercube.

    Parameters
    ----------
    axis, side:
        Face selector (side 0 = low face, 1 = high face).
    flux:
        ``nu * du/dn`` on the face: a scalar for uniform flux or a nodal
        array of the face shape ``(R,) * (d-1)``.
    """

    axis: int
    side: int
    flux: float | np.ndarray

    def face_values(self, grid: UniformGrid) -> np.ndarray:
        """Flux as a nodal array on the face grid."""
        face_shape = (grid.resolution,) * (grid.ndim - 1)
        if np.isscalar(self.flux):
            return np.full(face_shape, float(self.flux))
        arr = np.asarray(self.flux, dtype=np.float64)
        if arr.shape != face_shape:
            raise ValueError(
                f"flux shape {arr.shape} != face shape {face_shape}")
        return arr


def assemble_neumann_load(grid: UniformGrid, bcs: list[NeumannBC],
                          rule: GaussRule | None = None) -> np.ndarray:
    """Global load vector contribution of the flux conditions.

    A face is a (d-1)-dimensional uniform grid, and the surface integral
    of ``h N_i`` over it is that grid's load assembly.
    """
    if grid.ndim < 2:
        raise ValueError("Neumann faces require ndim >= 2")
    face = UniformGrid(grid.ndim - 1, grid.resolution)
    full = np.zeros(grid.shape)
    for bc in bcs:
        idx = [slice(None)] * grid.ndim
        idx[bc.axis] = 0 if bc.side == 0 else -1
        full[tuple(idx)] += assemble_load(
            face, bc.face_values(grid), rule).reshape(face.shape)
    return full.ravel()


def neumann_energy(u: Tensor, grid: UniformGrid, bcs: list[NeumannBC],
                   rule: GaussRule | None = None) -> Tensor:
    """Differentiable energy contribution ``-int h u dS``, per sample.

    ``u``: Tensor of shape (N, 1, \\*grid.shape).  Returns a Tensor (N,).
    Because the surface integral is linear in u, it equals ``-b_N . u``
    for the assembled ``b_N``, which is how it is computed (exactly
    consistent with :func:`assemble_neumann_load`).
    """
    b = assemble_neumann_load(grid, bcs, rule).reshape(grid.shape)
    b_t = Tensor(b[None, None].astype(u.dtype))
    prod = u * b_t
    return -prod.sum(axis=tuple(range(1, 2 + grid.ndim)))
