"""Pointwise nonlinearities and transcendental functions."""

from __future__ import annotations

import numpy as np

from ..backend import ops as B
from ..backend import realize
from .function import Context, Function
from .tensor import Tensor

__all__ = ["exp", "log", "sigmoid", "tanh", "relu", "leaky_relu", "leaky_forward",
           "leaky_factor", "abs_", "softplus"]


class Exp(Function):
    @staticmethod
    def forward(ctx: Context, a: np.ndarray) -> np.ndarray:
        out = B.exp(a)
        ctx.save_for_backward(out)
        return out

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        (out,) = ctx.saved
        return (grad * out,)


class Log(Function):
    @staticmethod
    def forward(ctx: Context, a: np.ndarray) -> np.ndarray:
        ctx.save_for_backward(a)
        return B.log(a)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        (a,) = ctx.saved
        return (grad / a,)


def _logistic(a: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-a)) as 0.5 + 0.5 * tanh(a / 2): stable for any a, and
    one pass per step instead of boolean-indexed copies."""
    out = B.tanh(a * 0.5)
    out *= 0.5
    out += 0.5
    return out


class Sigmoid(Function):
    @staticmethod
    def forward(ctx: Context, a: np.ndarray) -> np.ndarray:
        out = _logistic(a)
        ctx.save_for_backward(out)
        return out

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        (out,) = ctx.saved
        return (grad * out * (1.0 - out),)


class Tanh(Function):
    @staticmethod
    def forward(ctx: Context, a: np.ndarray) -> np.ndarray:
        out = B.tanh(a)
        ctx.save_for_backward(out)
        return out

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        (out,) = ctx.saved
        return (grad * (1.0 - out * out),)


class ReLU(Function):
    @staticmethod
    def forward(ctx: Context, a: np.ndarray) -> np.ndarray:
        mask = a > 0
        ctx.meta["mask"] = mask
        return a * mask

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        return (grad * ctx.meta["mask"],)


def leaky_forward(a: np.ndarray, negative_slope: float,
                  inplace: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Branch-free LeakyReLU: ``max(a, s*a)`` (``min`` for s > 1), bitwise
    ``where(a > 0, a, s*a)``.  Returns ``(out, a > 0)``, the mask being
    what :func:`leaky_factor` takes; ``inplace`` writes ``out`` over ``a``."""
    mask = a > 0
    sa = negative_slope * a
    out = (B.maximum if negative_slope <= 1 else B.minimum)(
        a, sa, out=a if inplace else sa)
    return out, mask


def leaky_factor(mask: np.ndarray, negative_slope: float,
                 dtype) -> np.ndarray:
    """The LeakyReLU derivative as a fresh array: 1 where ``mask``, the
    slope elsewhere, so ``grad * f`` is bitwise ``where(mask, grad,
    s*grad)`` at a fifth of its cost."""
    f = mask.astype(dtype)
    if 0 <= negative_slope <= 1:
        return B.maximum(f, negative_slope, out=f)
    # Any other slope: (~mask) * s + mask is exact too (s + 0, +-0 + 1).
    g = (~mask).astype(dtype)
    g *= negative_slope
    g += f
    return g


class LeakyReLU(Function):
    @staticmethod
    def forward(ctx: Context, a: np.ndarray, negative_slope: float = 0.01) -> np.ndarray:
        out, ctx.meta["mask"] = leaky_forward(realize(a), negative_slope)
        ctx.meta["slope"] = negative_slope
        return out

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        f = leaky_factor(ctx.meta["mask"], ctx.meta["slope"], grad.dtype)
        f *= realize(grad)
        return f, None


class Abs(Function):
    @staticmethod
    def forward(ctx: Context, a: np.ndarray) -> np.ndarray:
        ctx.meta["sign"] = B.sign(a)
        return B.abs(a)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        return (grad * ctx.meta["sign"],)


class Softplus(Function):
    @staticmethod
    def forward(ctx: Context, a: np.ndarray) -> np.ndarray:
        ctx.save_for_backward(a)
        return B.logaddexp(0.0, a).astype(a.dtype)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        (a,) = ctx.saved
        return (grad * _logistic(a),)


def exp(a: Tensor) -> Tensor:
    return Exp.apply(a)


def log(a: Tensor) -> Tensor:
    return Log.apply(a)


def sigmoid(a: Tensor) -> Tensor:
    return Sigmoid.apply(a)


def tanh(a: Tensor) -> Tensor:
    return Tanh.apply(a)


def relu(a: Tensor) -> Tensor:
    return ReLU.apply(a)


def leaky_relu(a: Tensor, negative_slope: float = 0.01) -> Tensor:
    return LeakyReLU.apply(a, negative_slope)


def abs_(a: Tensor) -> Tensor:
    return Abs.apply(a)


def softplus(a: Tensor) -> Tensor:
    return Softplus.apply(a)
