"""Gauss-Legendre quadrature on the reference element [-1, 1]^d.

The paper's FEM loss (Sec. 3.1.1) integrates the energy functional with
standard Gauss quadrature; 2 points per dimension is exact for the
bilinear/trilinear stiffness integrands with elementwise-smooth ν.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

__all__ = ["gauss_legendre_1d", "GaussRule"]


def gauss_legendre_1d(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Return (points, weights) of the n-point Gauss-Legendre rule on [-1, 1].

    Rules up to n=4 are tabulated exactly; larger n fall back to
    :func:`numpy.polynomial.legendre.leggauss`.
    """
    if n == 1:
        return np.array([0.0]), np.array([2.0])
    if n == 2:
        p = 1.0 / math.sqrt(3.0)
        return np.array([-p, p]), np.array([1.0, 1.0])
    if n == 3:
        p = math.sqrt(3.0 / 5.0)
        return np.array([-p, 0.0, p]), np.array([5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0])
    if n == 4:
        a = math.sqrt(3.0 / 7.0 - 2.0 / 7.0 * math.sqrt(6.0 / 5.0))
        b = math.sqrt(3.0 / 7.0 + 2.0 / 7.0 * math.sqrt(6.0 / 5.0))
        wa = (18.0 + math.sqrt(30.0)) / 36.0
        wb = (18.0 - math.sqrt(30.0)) / 36.0
        return np.array([-b, -a, a, b]), np.array([wb, wa, wa, wb])
    pts, wts = np.polynomial.legendre.leggauss(n)
    return pts, wts


@dataclass(frozen=True)
class GaussRule:
    """Tensor-product Gauss rule on [-1, 1]^ndim.

    Attributes
    ----------
    points:
        (n_points, ndim) reference coordinates.
    weights:
        (n_points,) tensor-product weights.
    """

    ndim: int
    order: int
    points: np.ndarray
    weights: np.ndarray

    @classmethod
    def create(cls, ndim: int, order: int = 2) -> "GaussRule":
        p1, w1 = gauss_legendre_1d(order)
        pts = np.array(list(product(p1, repeat=ndim)), dtype=np.float64)
        wts = np.array([math.prod(w1[i] for i in idx)
                        for idx in product(range(order), repeat=ndim)],
                       dtype=np.float64)
        return cls(ndim=ndim, order=order, points=pts, weights=wts)

    @property
    def n_points(self) -> int:
        return self.points.shape[0]
