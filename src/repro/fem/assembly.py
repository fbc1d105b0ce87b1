"""FEM assembly on uniform grids with Q1 elements and nodal data
interpolated to Gauss points.

The stiffness matrix is a CSR copy of the one stencil builder
(:mod:`repro.fem.stencil`); the load vector is accumulated by slice-adds
on the nodal array.  Nothing here builds index arrays or triplets.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .basis import gauss_interp, local_nodes, node_slices, shape_values
from .grid import UniformGrid
from .quadrature import GaussRule
from .stencil import StencilOperator

__all__ = [
    "interpolate_to_gauss",
    "assemble_stiffness", "assemble_load",
]


def interpolate_to_gauss(grid: UniformGrid, nodal: np.ndarray,
                         rule: GaussRule) -> np.ndarray:
    """Interpolate a nodal field to every element's Gauss points.

    Returns an array of shape ``(n_gauss, *element_shape)``.
    """
    nodal = np.asarray(nodal)
    if nodal.shape != grid.shape:
        raise ValueError(f"nodal field shape {nodal.shape} != grid {grid.shape}")
    return gauss_interp(nodal, rule)


def assemble_stiffness(grid: UniformGrid, nu_nodal: np.ndarray,
                       rule: GaussRule | None = None) -> sp.csr_matrix:
    """Assemble the global stiffness matrix for nodal diffusivity ``nu``."""
    return StencilOperator(grid, nu_nodal, rule).to_csr()


def assemble_load(grid: UniformGrid, f_nodal: np.ndarray | None,
                  rule: GaussRule | None = None) -> np.ndarray:
    """Assemble the load vector ``b_i = int f N_i`` for nodal forcing f."""
    b = np.zeros(grid.shape, dtype=np.float64)
    if f_nodal is None:
        return b.ravel()
    rule = rule or GaussRule.create(grid.ndim, 2)
    f_gauss = interpolate_to_gauss(
        grid, np.asarray(f_nodal, dtype=np.float64), rule)
    f_flat = f_gauss.reshape(rule.n_points, -1)
    values = shape_values(rule.points)  # (G, A)
    det_j = (grid.h / 2.0) ** grid.ndim
    for a, offset in enumerate(local_nodes(grid.ndim)):
        contrib = (rule.weights * values[:, a]) @ f_flat * det_j
        b[node_slices(offset, grid.resolution)] += contrib.reshape(
            grid.element_shape)
    return b.ravel()

