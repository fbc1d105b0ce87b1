"""The stencil builder as it was before K was stored as its upper half:
all 3^d diagonals formed by slice-adds, every local pair ``(a, b)`` on the
diagonal ``flat(b) - flat(a)`` at its column nodes, and the CSR taken
straight from that full DIA matrix.  ``tests/fem/test_half_stencil.py``
holds ``assemble_stiffness`` equal to it, array for array.  It imports only
the element tensors and basis tables from ``repro.fem``, no builder code.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.fem import (GaussRule, UniformGrid, element_stiffness_tensors,
                       local_nodes)
from repro.fem.basis import gauss_interp


def full_matrix(tensors: np.ndarray, coeff: np.ndarray) -> sp.dia_matrix:
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


def stiffness(grid: UniformGrid, nu: np.ndarray,
              rule: GaussRule) -> sp.csr_matrix:
    return full_matrix(element_stiffness_tensors(grid, rule),
                       gauss_interp(np.asarray(nu, dtype=np.float64),
                                    rule)).tocsr()

