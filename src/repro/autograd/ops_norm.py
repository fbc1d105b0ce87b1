"""Batch normalization over (N, C, *spatial) inputs."""

from __future__ import annotations

import numpy as np

from ..backend import ops as B
from .function import Context, Function
from .tensor import Tensor

__all__ = ["batch_norm"]


class BatchNorm(Function):
    """Training-mode batch norm; statistics are taken over (N, *spatial).

    The backward pass uses the standard fused expression

        dx = gamma * inv_std / M * (M*dy - sum(dy) - xhat * sum(dy*xhat))

    where M is the number of reduced elements per channel.  ``mean`` and
    ``var`` (per channel, biased) may be passed in by a caller that has
    already reduced ``x`` — the module does, for its running estimates —
    and must then be the statistics of this very ``x``: the backward
    differentiates through them.
    """

    @staticmethod
    def forward(ctx: Context, x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                eps: float = 1e-5, mean: np.ndarray | None = None,
                var: np.ndarray | None = None) -> np.ndarray:
        nd = x.ndim - 2
        axes = (0,) + tuple(range(2, 2 + nd))
        gshape = (1, -1) + (1,) * nd
        if mean is None or var is None:
            mean, var = x.mean(axis=axes), x.var(axis=axes)
        inv_std = 1.0 / B.sqrt(var.reshape(gshape) + eps)
        xhat = (x - mean.reshape(gshape)) * inv_std
        out = gamma.reshape(gshape) * xhat + beta.reshape(gshape)
        m = x.size // x.shape[1]
        ctx.meta.update(xhat=xhat, inv_std=inv_std, axes=axes, m=m,
                        gamma=gamma, gshape=gshape)
        return out

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        xhat = ctx.meta["xhat"]
        inv_std = ctx.meta["inv_std"]
        axes = ctx.meta["axes"]
        m = ctx.meta["m"]
        gamma = ctx.meta["gamma"].reshape(ctx.meta["gshape"])

        dgamma = (grad * xhat).sum(axis=axes)
        dbeta = grad.sum(axis=axes)
        sum_dy = grad.sum(axis=axes, keepdims=True)
        sum_dy_xhat = (grad * xhat).sum(axis=axes, keepdims=True)
        dx = gamma * inv_std / m * (m * grad - sum_dy - xhat * sum_dy_xhat)
        return dx, dgamma, dbeta, None, None, None


class BatchNormInference(Function):
    """Evaluation-mode batch norm using fixed running statistics: one
    per-channel affine map ``x * scale + shift``."""

    @staticmethod
    def forward(ctx: Context, x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                running_mean: np.ndarray, running_var: np.ndarray,
                eps: float = 1e-5) -> np.ndarray:
        nd = x.ndim - 2
        gshape = (1, -1) + (1,) * nd
        inv_std = 1.0 / B.sqrt(running_var + eps)
        scale = gamma * inv_std
        shift = beta - running_mean * scale
        ctx.save_for_backward(x)
        ctx.meta.update(mean=running_mean, inv_std=inv_std, scale=scale,
                        gshape=gshape, axes=(0,) + tuple(range(2, 2 + nd)))
        return x * scale.reshape(gshape) + shift.reshape(gshape)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        x, = ctx.saved
        gshape = ctx.meta["gshape"]
        axes = ctx.meta["axes"]
        xhat = ((x - ctx.meta["mean"].reshape(gshape))
                * ctx.meta["inv_std"].reshape(gshape))
        dgamma = (grad * xhat).sum(axis=axes)
        dbeta = grad.sum(axis=axes)
        dx = grad * ctx.meta["scale"].reshape(gshape)
        return dx, dgamma, dbeta, None, None, None


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor,
               running_mean: np.ndarray | None = None,
               running_var: np.ndarray | None = None,
               training: bool = True, eps: float = 1e-5,
               batch_stats: tuple[np.ndarray, np.ndarray] | None = None
               ) -> Tensor:
    """Apply batch normalization; see :class:`repro.nn.norm.BatchNorm`.

    ``batch_stats`` is the already-computed per-channel ``(mean, biased
    var)`` of ``x`` for training mode (see :class:`BatchNorm`).
    """
    if training:
        return BatchNorm.apply(x, gamma, beta, eps, *(batch_stats or ()))
    if running_mean is None or running_var is None:
        raise ValueError("running statistics required in eval mode")
    return BatchNormInference.apply(x, gamma, beta, running_mean, running_var, eps)
