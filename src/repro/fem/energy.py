"""Differentiable FEM energy loss (Sec. 3.1.1 of the paper).

The loss is the discrete energy functional

    J(u) = 1/2 B(u, u) - L(u)
         = 1/2 sum_e sum_g w_g detJ nu(x_g) |grad u(x_g)|^2
           -     sum_e sum_g w_g detJ f(x_g) u(x_g)
         = 1/2 u^T K(nu) u - b^T u

and it is one autograd op.  Its forward is one pass of the matrix-free
stiffness kernel (:func:`repro.fem.stencil.apply_stiffness`), which
returns the quadratic term summed over Gauss points *and* ``K u``; forcing
and Neumann fluxes are linear in ``u`` and enter through the assembled
load vector ``b``.  The forward saves ``dJ/du = K u - b``, so the backward
pass is a scaling of that field by the incoming gradient — no graph of
Gauss-point tensors is recorded, and the gradient is *exactly* the
residual of the assembled system (verified in tests against the op-by-op
chain this replaced, ``tests/fem/energy_oracle.py``).

Minimizing J over admissible fields (Dirichlet data imposed exactly by the
masking of Algorithm 1) therefore reproduces the FEM solution — this is
what lets MGDiffNet train without labeled data.
"""

from __future__ import annotations

import numpy as np

from ..autograd import Context, Function, Tensor
from ..backend import realize
from .assembly import assemble_load
from .grid import UniformGrid
from .neumann import assemble_neumann_load
from .quadrature import GaussRule
from .stencil import apply_stiffness

__all__ = ["EnergyLoss"]


class Energy(Function):
    """Per-sample ``J(u) = 1/2 u^T K(nu) u - b^T u`` of ``u (N, 1, *R)``."""

    @staticmethod
    def forward(ctx: Context, u: np.ndarray, nu: np.ndarray,
                b: np.ndarray | None, rule: GaussRule) -> np.ndarray:
        # The kernel works on concrete buffers: a realize barrier for the
        # lazy backend, like the conv engine's.
        u, nu = realize(u), realize(nu)
        energy, residual = apply_stiffness(
            u[:, 0], nu[:, 0], rule, adjoint=ctx.needs_input_grad[0])
        if b is not None:
            # One dot per sample, so a sample's J does not depend on the
            # batch it arrived in (a batched gemv may sum in another order).
            load = b.ravel()
            energy -= [sample @ load for sample in u.reshape(len(u), -1)]
            if residual is not None:
                residual -= b
        ctx.save_for_backward(residual)
        return energy.astype(u.dtype)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        (residual,) = ctx.saved
        scale = realize(grad).reshape((-1, 1) + (1,) * (residual.ndim - 1))
        return scale * residual[:, None], None, None, None


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
    neumann:
        Optional list of :class:`repro.fem.neumann.NeumannBC` fluxes.

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
        # Everything linear in u, as one nodal load (None: J is quadratic).
        self._load: np.ndarray | None = None
        if self.forcing is not None or self.neumann:
            load = assemble_load(grid, self.forcing, self.rule)
            if self.neumann:
                load = load + assemble_neumann_load(grid, self.neumann)
            self._load = load.reshape(grid.shape)

    def per_sample(self, u: Tensor, nu: Tensor | np.ndarray) -> Tensor:
        """Per-sample energies as a Tensor of shape (N,)."""
        grid = self.grid
        d = grid.ndim
        if u.ndim != d + 2 or u.shape[1] != 1:
            raise ValueError(
                f"u must have shape (N, 1, {'x'.join([str(grid.resolution)] * d)}), "
                f"got {u.shape}")
        if u.shape[2:] != grid.shape:
            raise ValueError(f"u spatial shape {u.shape[2:]} != grid {grid.shape}")
        nu_arr = nu.data if isinstance(nu, Tensor) else np.asarray(nu)
        if nu_arr.shape != u.shape:
            raise ValueError(f"nu shape {nu_arr.shape} != u shape {u.shape}")
        return Energy.apply(u, nu_arr, self._load, self.rule)

    def __call__(self, u: Tensor, nu: Tensor | np.ndarray) -> Tensor:
        per = self.per_sample(u, nu)
        return per.mean() if self.reduction == "mean" else per.sum()
