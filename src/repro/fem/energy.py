"""Differentiable FEM energy loss (Sec. 3.1.1 of the paper).

The loss is the discrete energy functional

    J(u) = 1/2 B(u, u) - L(u)
         = 1/2 sum_e sum_g w_g detJ nu(x_g) |grad u(x_g)|^2
           -     sum_e sum_g w_g detJ f(x_g) u(x_g)

evaluated as a *convolution* of the nodal field with fixed Q1 stencils:
for each Gauss point the map from nodal values to the gradient (or value)
at that point of every element is a 2^d-tap correlation.  This expresses
J through :mod:`repro.autograd` ops, so `dJ/du` comes from backprop and is
*exactly* ``K u - b`` of the assembled system (verified in tests).

Minimizing J over admissible fields (Dirichlet data imposed exactly by the
masking of Algorithm 1) therefore reproduces the FEM solution — this is
what lets MGDiffNet train without labeled data.
"""

from __future__ import annotations

import numpy as np

from ..backend import ops as B
from ..autograd import Tensor, conv_nd
from .basis import gauss_interp, shape_gradients, shape_values
from .grid import UniformGrid
from .quadrature import GaussRule

__all__ = ["EnergyLoss"]


class EnergyLoss:
    """Variational Poisson loss over batched nodal fields.

    Parameters
    ----------
    grid:
        Uniform grid the nodal fields live on.
    rule:
        Gauss rule; defaults to 2 points per dimension.
    forcing:
        Optional nodal forcing field ``f`` of shape ``grid.shape``.
    reduction:
        'mean' (default) averages per-sample energies over the batch,
        'sum' adds them — 'sum' with a single sample is the exact
        matrix-form energy used in the consistency tests.

    Call with ``u``: Tensor (N, 1, \\*grid.shape) and ``nu``: Tensor or
    ndarray of the same shape; returns a scalar Tensor.
    """

    def __init__(self, grid: UniformGrid, rule: GaussRule | None = None,
                 forcing: np.ndarray | None = None,
                 reduction: str = "mean",
                 neumann: list | None = None) -> None:
        if reduction not in ("mean", "sum"):
            raise ValueError(f"unknown reduction {reduction!r}")
        self.grid = grid
        self.rule = rule or GaussRule.create(grid.ndim, 2)
        self.reduction = reduction
        self.forcing = None if forcing is None else np.asarray(forcing, dtype=np.float64)
        if self.forcing is not None and self.forcing.shape != grid.shape:
            raise ValueError("forcing shape must match grid")
        self.neumann = list(neumann) if neumann else []
        self._build_kernels()
        self._weight_cache: dict[type, tuple[Tensor, Tensor]] = {}

    # ------------------------------------------------------------------ #
    def _build_kernels(self) -> None:
        d = self.grid.ndim
        h = self.grid.h
        g = self.rule.n_points
        grads = shape_gradients(self.rule.points)   # (G, A, d) reference
        values = shape_values(self.rule.points)     # (G, A)
        # Local nodes run in C order of their offsets, so the A axis is the
        # (2,)*d taps of a kernel.  Derivative kernels (G*d, 1, 2, [2, [2]]),
        # physical scale 2/h; interpolation kernels (G, 1, 2, ...).
        self._dker = ((2.0 / h) * B.moveaxis(grads, 1, 2)).reshape(
            (g * d, 1) + (2,) * d)
        self._vker = values.reshape((g, 1) + (2,) * d)
        self._det_j = (h / 2.0) ** d
        # Quadrature weights broadcast over (N, G, d, *E) and (N, G, *E).
        self._wg = self.rule.weights.copy()

    def _weights_for(self, dtype: np.dtype) -> tuple[Tensor, Tensor]:
        key = dtype.type
        if key not in self._weight_cache:
            self._weight_cache[key] = (
                Tensor(self._dker.astype(dtype)),
                Tensor(self._vker.astype(dtype)),
            )
        return self._weight_cache[key]

    # ------------------------------------------------------------------ #
    def per_sample(self, u: Tensor, nu: Tensor | np.ndarray) -> Tensor:
        """Per-sample energies as a Tensor of shape (N,)."""
        grid = self.grid
        d = grid.ndim
        g = self.rule.n_points
        if u.ndim != d + 2 or u.shape[1] != 1:
            raise ValueError(
                f"u must have shape (N, 1, {'x'.join([str(grid.resolution)] * d)}), "
                f"got {u.shape}")
        if u.shape[2:] != grid.shape:
            raise ValueError(f"u spatial shape {u.shape[2:]} != grid {grid.shape}")

        nu_arr = nu.data if isinstance(nu, Tensor) else np.asarray(nu)
        if nu_arr.shape != u.shape:
            raise ValueError(f"nu shape {nu_arr.shape} != u shape {u.shape}")

        dker, vker = self._weights_for(u.dtype)
        n = u.shape[0]
        elem_shape = grid.element_shape

        # Gradients at Gauss points: (N, G*d, *E) -> (N, G, d, *E).
        grads = conv_nd(u, dker)
        grads = grads.reshape((n, g, d) + elem_shape)

        # nu at Gauss points (constant w.r.t. the graph): (N, G, 1, *E).
        nu_b = gauss_interp(nu_arr.astype(u.dtype)[:, 0], self.rule)[:, :, None]

        # w_g detJ broadcast: (1, G, 1, *1).
        wdet = (self._wg * self._det_j).astype(u.dtype).reshape(
            (1, g, 1) + (1,) * d)

        sq = grads * grads
        integrand = sq * Tensor(nu_b) * Tensor(wdet)
        energy = integrand.sum(axis=tuple(range(1, 3 + d))) * 0.5  # (N,)

        if self.forcing is not None:
            u_gauss = conv_nd(u, vker)                       # (N, G, *E)
            f_gauss = gauss_interp(
                B.broadcast_to(self.forcing, u.shape).astype(u.dtype)[:, 0],
                self.rule)
            wdet_f = (self._wg * self._det_j).astype(u.dtype).reshape(
                (1, g) + (1,) * d)
            load = u_gauss * Tensor(f_gauss) * Tensor(wdet_f)
            energy = energy - load.sum(axis=tuple(range(1, 2 + d)))
        if self.neumann:
            from .neumann import neumann_energy

            energy = energy + neumann_energy(u, grid, self.neumann)
        return energy

    def __call__(self, u: Tensor, nu: Tensor | np.ndarray) -> Tensor:
        per = self.per_sample(u, nu)
        return per.mean() if self.reduction == "mean" else per.sum()
