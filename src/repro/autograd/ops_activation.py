"""Pointwise nonlinearities: the U-Net's LeakyReLU and Sigmoid."""

from __future__ import annotations

import numpy as np

from ..backend import ops as B
from ..backend import realize
from .function import Context, Function
from .tensor import Tensor

__all__ = ["sigmoid", "leaky_relu", "leaky_forward", "leaky_factor"]


class Sigmoid(Function):
    @staticmethod
    def forward(ctx: Context, a: np.ndarray) -> np.ndarray:
        # 1 / (1 + exp(-a)) as 0.5 + 0.5 * tanh(a / 2): stable for any a,
        # and one pass per step instead of boolean-indexed copies.
        out = B.tanh(a * 0.5)
        out *= 0.5
        out += 0.5
        ctx.save_for_backward(out)
        return out

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        (out,) = ctx.saved
        return (grad * out * (1.0 - out),)


LEAKY_CHUNK = 1 << 16     # elements: a 256 KiB float32 temporary


def leaky_forward(a: np.ndarray, negative_slope: float,
                  inplace: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Branch-free LeakyReLU: ``max(a, s*a)`` (``min`` for s > 1), bitwise
    ``where(a > 0, a, s*a)``.  Returns ``(out, a > 0)``, the mask being
    what :func:`leaky_factor` takes; ``inplace`` writes ``out`` over ``a``,
    a C-contiguous ndarray in chunks of ``LEAKY_CHUNK`` elements, so that
    ``s*a`` never exists whole."""
    mask = a > 0
    pick = B.maximum if negative_slope <= 1 else B.minimum
    if not (inplace and isinstance(a, np.ndarray) and a.flags.c_contiguous):
        sa = negative_slope * a
        return pick(a, sa, out=a if inplace else sa), mask
    flat = a.reshape(-1)
    for i in range(0, flat.size, LEAKY_CHUNK):
        chunk = flat[i:i + LEAKY_CHUNK]
        pick(chunk, negative_slope * chunk, out=chunk)
    return a, mask


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


def sigmoid(a: Tensor) -> Tensor:
    return Sigmoid.apply(a)


def leaky_relu(a: Tensor, negative_slope: float = 0.01) -> Tensor:
    return LeakyReLU.apply(a, negative_slope)
