"""Batch normalization over (N, C, *spatial) inputs."""

from __future__ import annotations

import numpy as np

from ..backend import ops as B
from ..backend import realize
from .function import Context, Function
from .ops_activation import leaky_factor, leaky_forward, leaky_relu
from .tensor import Tensor

__all__ = ["batch_norm", "batch_stats"]


def _channel_sum(a3: np.ndarray) -> np.ndarray:
    """Per-channel sum of an ``(N, C, S)`` array: the contiguous spatial
    axis first, then the batch."""
    return a3.sum(axis=2).sum(axis=0)


def batch_stats(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-channel ``(mean, biased var, centered)`` of ``x (N, C, *spatial)``,
    reduced over its contiguous ``(N, C, S)`` view.  ``centered`` is the
    fresh ``(N, C, S)`` array ``x - mean`` that :class:`BatchNorm` turns
    into ``xhat`` in place."""
    n, c = x.shape[:2]
    x3 = realize(x).reshape(n, c, -1)
    m = x3.size // c
    mean = _channel_sum(x3) / m
    centered = x3 - mean[:, None]
    return mean, _channel_sum(centered * centered) / m, centered


class BatchNorm(Function):
    """Training-mode batch norm, optionally with a LeakyReLU epilogue.

    Statistics are taken over (N, *spatial).  ``stats`` is
    :func:`batch_stats` of this very ``x``, passed in by a caller that
    needs them too — the module does, for its running estimates; the
    backward differentiates through them, and the op scales the
    ``centered`` array into ``xhat`` in place.

    The forward forms ``xhat`` and ``y = gamma * xhat + beta``;
    with ``negative_slope`` it then applies ``max(y, s * y)`` in place
    (:func:`~.ops_activation.leaky_forward`) and keeps the sign mask, so a
    training ``ConvBlock`` is conv + this one op.  The backward turns the
    incoming gradient into ``g = grad * f`` (``f`` the exact LeakyReLU
    derivative, :func:`~.ops_activation.leaky_factor`) and then, in
    place, into the standard fused expression

        dx = gamma * inv_std * (g - sum(g)/M - xhat * sum(g*xhat)/M)

    where M is the number of reduced elements per channel; the one
    ``g * xhat`` product gives both ``sum(g*xhat)`` and ``dgamma``.
    """

    @staticmethod
    def forward(ctx: Context, x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                eps: float = 1e-5,
                stats: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
                negative_slope: float | None = None) -> np.ndarray:
        _, var, xhat = stats if stats is not None else batch_stats(x)
        inv_std = 1.0 / B.sqrt(var + eps)
        xhat *= inv_std[:, None]
        out = xhat * gamma[:, None]
        out += beta[:, None]
        mask = None
        if negative_slope is not None:
            out, mask = leaky_forward(out, negative_slope, inplace=True)
        ctx.meta.update(xhat=xhat, inv_std=inv_std, gamma=gamma, mask=mask,
                        slope=negative_slope)
        return out.reshape(x.shape)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        meta = ctx.meta
        xhat = meta["xhat"]
        grad = realize(grad)
        g = grad.reshape(xhat.shape)
        if meta["mask"] is not None:
            g = leaky_factor(meta["mask"], meta["slope"], g.dtype)
            g *= grad.reshape(xhat.shape)
        m = xhat.size // xhat.shape[1]
        dbeta = _channel_sum(g)
        dgamma = _channel_sum(g * xhat)
        dx = None
        if ctx.needs_input_grad[0]:
            # ``g`` is ours to overwrite once the activation has made it.
            dx = g.copy() if meta["mask"] is None else g
            dx -= (dbeta / m)[:, None]
            dx -= xhat * (dgamma / m)[:, None]
            dx *= (meta["gamma"] * meta["inv_std"])[:, None]
            dx = dx.reshape(grad.shape)
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
               batch_stats: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
               negative_slope: float | None = None) -> Tensor:
    """Apply batch normalization; see :class:`repro.nn.norm.BatchNorm`.

    ``batch_stats`` is the already-computed :func:`batch_stats` of ``x``
    for training mode (see :class:`BatchNorm`).  With
    ``negative_slope`` the result goes through LeakyReLU: fused into the
    op in training mode, a separate op in evaluation mode.
    """
    if training:
        return BatchNorm.apply(x, gamma, beta, eps, batch_stats, negative_slope)
    if running_mean is None or running_var is None:
        raise ValueError("running statistics required in eval mode")
    out = BatchNormInference.apply(x, gamma, beta, running_mean, running_var, eps)
    return out if negative_slope is None else leaky_relu(out, negative_slope)
