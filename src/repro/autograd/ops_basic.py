"""Elementwise arithmetic ops.

All ops broadcast following NumPy semantics; backward passes reduce
gradients back to the operand shapes via :func:`unbroadcast`.
"""

from __future__ import annotations

import numpy as np

from .function import Context, Function, unbroadcast
from .tensor import Tensor

__all__ = ["add", "sub", "mul"]


class Add(Function):
    @staticmethod
    def forward(ctx: Context, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        ctx.meta["shapes"] = (a.shape, b.shape)
        return a + b

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        return tuple(unbroadcast(grad, shape) if needed else None
                     for shape, needed in zip(ctx.meta["shapes"],
                                              ctx.needs_input_grad))


class Sub(Function):
    @staticmethod
    def forward(ctx: Context, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        ctx.meta["shapes"] = (a.shape, b.shape)
        return a - b

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        sa, sb = ctx.meta["shapes"]
        return unbroadcast(grad, sa), unbroadcast(-grad, sb)


class Mul(Function):
    @staticmethod
    def forward(ctx: Context, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        ctx.save_for_backward(a, b)
        return a * b

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        a, b = ctx.saved
        need_a, need_b = ctx.needs_input_grad
        return (unbroadcast(grad * b, a.shape) if need_a else None,
                unbroadcast(grad * a, b.shape) if need_b else None)


# --------------------------------------------------------------------- #
# Friendly functional wrappers
# --------------------------------------------------------------------- #

def add(a: Tensor, b: Tensor) -> Tensor:
    return Add.apply(a, b)


def sub(a: Tensor, b: Tensor) -> Tensor:
    return Sub.apply(a, b)


def mul(a: Tensor, b: Tensor) -> Tensor:
    return Mul.apply(a, b)
