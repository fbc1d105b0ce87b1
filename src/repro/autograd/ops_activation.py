"""Pointwise nonlinearities and transcendental functions."""

from __future__ import annotations

import numpy as np

from ..backend import ops as B
from .function import Context, Function
from .tensor import Tensor

__all__ = ["exp", "log", "sigmoid", "tanh", "relu", "leaky_relu", "abs_", "softplus"]


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


class Sigmoid(Function):
    @staticmethod
    def forward(ctx: Context, a: np.ndarray) -> np.ndarray:
        # Numerically stable logistic.
        out = B.empty_like(a)
        pos = a >= 0
        out[pos] = 1.0 / (1.0 + B.exp(-a[pos]))
        e = B.exp(a[~pos])
        out[~pos] = e / (1.0 + e)
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


class LeakyReLU(Function):
    @staticmethod
    def forward(ctx: Context, a: np.ndarray, negative_slope: float = 0.01) -> np.ndarray:
        mask = a > 0
        ctx.meta["mask"] = mask
        ctx.meta["slope"] = negative_slope
        return B.where(mask, a, negative_slope * a)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        mask = ctx.meta["mask"]
        slope = ctx.meta["slope"]
        return B.where(mask, grad, slope * grad), None


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
        sig = B.empty_like(a)
        pos = a >= 0
        sig[pos] = 1.0 / (1.0 + B.exp(-a[pos]))
        e = B.exp(a[~pos])
        sig[~pos] = e / (1.0 + e)
        return (grad * sig,)


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
