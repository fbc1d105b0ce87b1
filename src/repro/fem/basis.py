"""Multilinear (Q1) finite-element basis on the reference cube [-1, 1]^d.

Local nodes are indexed by binary offsets ``a in {0, 1}^d`` sitting at
reference coordinates ``xi_a = 2a - 1``; shape functions are the tensor
products ``N_a(xi) = prod_k (1 + xi_a[k] * xi[k]) / 2``.
"""

from __future__ import annotations

from itertools import product

import numpy as np

__all__ = ["local_nodes", "node_slices", "shape_values", "shape_gradients",
           "gauss_interp"]


def local_nodes(ndim: int) -> np.ndarray:
    """Binary local-node offsets, shape (2^d, d), lexicographic order."""
    return np.array(list(product((0, 1), repeat=ndim)), dtype=np.int64)


def node_slices(node, resolution: int) -> tuple[slice, ...]:
    """Local node ``node`` of every element at once: the slices of a nodal
    array of side ``resolution`` that line up with its element array."""
    return tuple(slice(o, o + resolution - 1) for o in node)


def shape_values(points: np.ndarray) -> np.ndarray:
    """Evaluate all Q1 shape functions at reference points.

    Parameters
    ----------
    points:
        (n_pts, d) coordinates in [-1, 1]^d.

    Returns
    -------
    (n_pts, 2^d) array: ``out[g, a] = N_a(points[g])``.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    d = points.shape[1]
    nodes = local_nodes(d)
    signs = 2.0 * nodes - 1.0                     # (2^d, d)
    # (n_pts, 2^d, d): (1 + s_k * xi_k)/2 per dimension, then product.
    factors = 0.5 * (1.0 + signs[None, :, :] * points[:, None, :])
    return factors.prod(axis=2)


def shape_gradients(points: np.ndarray) -> np.ndarray:
    """Reference-coordinate gradients of all Q1 shape functions.

    Returns
    -------
    (n_pts, 2^d, d) array: ``out[g, a, k] = dN_a/dxi_k (points[g])``.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    d = points.shape[1]
    nodes = local_nodes(d)
    signs = 2.0 * nodes - 1.0
    factors = 0.5 * (1.0 + signs[None, :, :] * points[:, None, :])  # (g, a, d)
    grads = np.empty((points.shape[0], nodes.shape[0], d))
    for k in range(d):
        # Replace factor k with its derivative s_k / 2.
        g = 0.5 * signs[None, :, k]
        others = np.ones_like(factors[:, :, 0])
        for j in range(d):
            if j != k:
                others = others * factors[:, :, j]
        grads[:, :, k] = g * others
    return grads


def gauss_interp(nodal: np.ndarray, rule) -> np.ndarray:
    """Interpolate nodal arrays ``[..., *R]`` to every element's Gauss
    points: ``[..., G, *E]``, in the dtype of ``nodal``.

    The one walk over an element's local nodes for data (ν, f, face
    fluxes); leading axes are batch axes.
    """
    d = rule.points.shape[1]
    values = shape_values(rule.points)              # (G, A)
    elems = tuple(n - 1 for n in nodal.shape[-d:])
    out = np.zeros(nodal.shape[:-d] + (rule.n_points,) + elems,
                   dtype=nodal.dtype)
    for a, offset in enumerate(local_nodes(d)):
        block = nodal[(...,) + tuple(slice(o, o + e)
                                     for o, e in zip(offset, elems))]
        out += (values[:, a].reshape((-1,) + (1,) * d)
                * block[(..., None) + (slice(None),) * d])
    return out
