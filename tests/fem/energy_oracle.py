"""The FEM energy written op by op — the oracle.

This is how ``repro.fem.energy.EnergyLoss`` computed ``J(u)`` before it
became one fused op: a conv of the nodal field with the Q1 derivative
kernels, ``grads * grads``, ``* nu``, ``* w``, ``sum``, and for the
forcing term a second conv with the interpolation kernels.  Here it is
a NumPy forward in the dtype of ``u`` over the tap loop of
``tests/conv_oracles.py``: it shares no code with
``backend.conv_plan.conv_energy`` or ``fem.stencil``.  The fused loss is
tested against its value; its gradient is tested against ``K u - b``.
"""

from __future__ import annotations

import numpy as np

from repro.fem import GaussRule, UniformGrid
from repro.fem.basis import gauss_interp, shape_gradients, shape_values

from tests.conv_oracles import tap_loop


def chain_energy(u: np.ndarray, nu: np.ndarray, grid: UniformGrid,
                 rule: GaussRule, forcing: np.ndarray | None = None
                 ) -> np.ndarray:
    """Per-sample ``J`` of ``u (N, 1, *grid.shape)`` as an array ``(N,)``."""
    d, h, g, n = grid.ndim, grid.h, rule.n_points, u.shape[0]
    dtype = u.dtype
    # Local nodes run in C order of their offsets, so the A axis is the
    # (2,)*d taps of a kernel.  Derivative kernels (G*d, 1, 2, [2, [2]]),
    # physical scale 2/h; interpolation kernels (G, 1, 2, ...).
    dker = ((2.0 / h) * np.moveaxis(shape_gradients(rule.points), 1, 2)
            ).reshape((g * d, 1) + (2,) * d)
    vker = shape_values(rule.points).reshape((g, 1) + (2,) * d)
    wdet = rule.weights * (h / 2.0) ** d
    ones, zeros = (1,) * d, (0,) * d

    # Gradients at Gauss points: (N, G*d, *E) -> (N, G, d, *E).
    grads = tap_loop(u, dker.astype(dtype), ones, zeros)
    grads = grads.reshape((n, g, d) + grid.element_shape)
    # nu at Gauss points: (N, G, 1, *E).
    nu_b = gauss_interp(np.asarray(nu).astype(dtype)[:, 0], rule)[:, :, None]
    integrand = grads * grads * nu_b * wdet.astype(dtype).reshape(
        (1, g, 1) + (1,) * d)
    energy = integrand.sum(axis=tuple(range(1, 3 + d))) * dtype.type(0.5)

    if forcing is not None:
        u_gauss = tap_loop(u, vker.astype(dtype), ones, zeros)  # (N, G, *E)
        f_gauss = gauss_interp(
            np.broadcast_to(forcing, u.shape).astype(dtype)[:, 0], rule)
        load = u_gauss * f_gauss * wdet.astype(dtype).reshape(
            (1, g) + (1,) * d)
        energy = energy - load.sum(axis=tuple(range(1, 2 + d)))
    return energy
