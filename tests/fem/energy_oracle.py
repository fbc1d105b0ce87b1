"""The FEM energy written op by op on the autograd tape — the oracle.

This is how ``repro.fem.energy.EnergyLoss`` computed ``J(u)`` before it
became one fused op: a conv of the nodal field with the Q1 derivative
kernels, ``grads * grads``, ``* nu``, ``* w``, ``sum`` — each a recorded
``Function``, so ``dJ/du`` comes out of backprop through the chain, and the
forcing term is a second conv with the interpolation kernels.  It shares
no code with ``backend.conv_plan.conv_energy`` or ``fem.stencil``; the
fused loss is tested against it in value and in gradient.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import Tensor, conv_nd
from repro.fem import GaussRule, UniformGrid
from repro.fem.basis import gauss_interp, shape_gradients, shape_values
from repro.fem.neumann import neumann_energy


def chain_energy(u: Tensor, nu: np.ndarray, grid: UniformGrid,
                 rule: GaussRule, forcing: np.ndarray | None = None,
                 neumann: list | None = None) -> Tensor:
    """Per-sample ``J`` of ``u (N, 1, *grid.shape)`` as a Tensor ``(N,)``."""
    d, h, g, n = grid.ndim, grid.h, rule.n_points, u.shape[0]
    dtype = u.dtype
    # Local nodes run in C order of their offsets, so the A axis is the
    # (2,)*d taps of a kernel.  Derivative kernels (G*d, 1, 2, [2, [2]]),
    # physical scale 2/h; interpolation kernels (G, 1, 2, ...).
    dker = ((2.0 / h) * np.moveaxis(shape_gradients(rule.points), 1, 2)
            ).reshape((g * d, 1) + (2,) * d)
    vker = shape_values(rule.points).reshape((g, 1) + (2,) * d)
    wdet = rule.weights * (h / 2.0) ** d

    # Gradients at Gauss points: (N, G*d, *E) -> (N, G, d, *E).
    grads = conv_nd(u, Tensor(dker.astype(dtype)))
    grads = grads.reshape((n, g, d) + grid.element_shape)
    # nu at Gauss points (constant w.r.t. the graph): (N, G, 1, *E).
    nu_b = gauss_interp(np.asarray(nu).astype(dtype)[:, 0], rule)[:, :, None]
    sq = grads * grads
    integrand = sq * Tensor(nu_b) * Tensor(
        wdet.astype(dtype).reshape((1, g, 1) + (1,) * d))
    energy = integrand.sum(axis=tuple(range(1, 3 + d))) * 0.5  # (N,)

    if forcing is not None:
        u_gauss = conv_nd(u, Tensor(vker.astype(dtype)))          # (N, G, *E)
        f_gauss = gauss_interp(
            np.broadcast_to(forcing, u.shape).astype(dtype)[:, 0], rule)
        load = u_gauss * Tensor(f_gauss) * Tensor(
            wdet.astype(dtype).reshape((1, g) + (1,) * d))
        energy = energy - load.sum(axis=tuple(range(1, 2 + d)))
    if neumann:
        energy = energy + neumann_energy(u, grid, neumann)
    return energy
