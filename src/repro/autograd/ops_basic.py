"""Elementwise arithmetic and shape-manipulation ops.

All ops broadcast following NumPy semantics; backward passes reduce
gradients back to the operand shapes via :func:`unbroadcast`.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Sequence

import numpy as np

from ..backend import ops as B
from .function import Context, Function, unbroadcast
from .tensor import Tensor

__all__ = [
    "add", "sub", "mul", "neg", "reshape", "moveaxis", "pad", "concat",
    "flip", "zero_stuff",
]


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


class Neg(Function):
    @staticmethod
    def forward(ctx: Context, a: np.ndarray) -> np.ndarray:
        return -a

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        return (-grad,)


class Reshape(Function):
    @staticmethod
    def forward(ctx: Context, a: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
        ctx.meta["shape"] = a.shape
        return a.reshape(shape)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        return grad.reshape(ctx.meta["shape"]), None


class MoveAxis(Function):
    @staticmethod
    def forward(ctx: Context, a: np.ndarray, source: int, destination: int) -> np.ndarray:
        ctx.meta["src"], ctx.meta["dst"] = source, destination
        return B.moveaxis(a, source, destination)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        return B.moveaxis(grad, ctx.meta["dst"], ctx.meta["src"]), None, None


class Pad(Function):
    @staticmethod
    def forward(ctx: Context, a: np.ndarray, pad_width: Sequence[tuple[int, int]],
                mode: str = "constant", value: float = 0.0) -> np.ndarray:
        pad_width = tuple(tuple(p) for p in pad_width)
        ctx.meta["pad"] = pad_width
        ctx.meta["mode"] = mode
        if mode == "constant":
            return B.pad(a, pad_width, mode="constant", constant_values=value)
        return B.pad(a, pad_width, mode=mode)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        pad = ctx.meta["pad"]
        mode = ctx.meta["mode"]
        slices = tuple(slice(lo, g - hi if hi else None)
                       for (lo, hi), g in zip(pad, grad.shape))
        g = grad[slices]
        if mode == "constant":
            return g, None
        raise NotImplementedError(f"backward not implemented for pad mode {mode!r}")


class Concat(Function):
    @staticmethod
    def forward(ctx: Context, *arrays: np.ndarray, axis: int = 0) -> np.ndarray:
        ctx.meta["axis"] = axis
        ctx.meta["sizes"] = [a.shape[axis] for a in arrays]
        return B.concatenate(arrays, axis=axis)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        axis = ctx.meta["axis"]
        sizes = ctx.meta["sizes"]
        splits = list(accumulate(sizes))[:-1]
        return tuple(B.split(grad, splits, axis=axis))


class Flip(Function):
    @staticmethod
    def forward(ctx: Context, a: np.ndarray, axis: int | tuple[int, ...]) -> np.ndarray:
        ctx.meta["axis"] = axis
        return B.flip(a, axis=axis)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        return B.flip(grad, axis=ctx.meta["axis"]).copy(), None


class ZeroStuff(Function):
    """Insert ``stride-1`` zeros between samples along spatial axes.

    Used to express transposed convolution as a regular convolution:
    ``conv_transpose(x, W, s) == conv(zero_stuff(x, s), flip(W), 1)`` up to
    padding bookkeeping.  Spatial axes are all axes from ``first_axis`` on.
    """

    @staticmethod
    def forward(ctx: Context, a: np.ndarray, stride: tuple[int, ...],
                first_axis: int = 2) -> np.ndarray:
        spatial = a.shape[first_axis:]
        out_spatial = tuple((s - 1) * st + 1 for s, st in zip(spatial, stride))
        out = B.zeros(a.shape[:first_axis] + out_spatial, dtype=a.dtype)
        idx = (slice(None),) * first_axis + tuple(
            slice(None, None, st) for st in stride)
        out[idx] = a
        ctx.meta["idx"] = idx
        return out

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        return grad[ctx.meta["idx"]].copy(), None, None


# --------------------------------------------------------------------- #
# Friendly functional wrappers
# --------------------------------------------------------------------- #

def add(a: Tensor, b: Tensor) -> Tensor:
    return Add.apply(a, b)


def sub(a: Tensor, b: Tensor) -> Tensor:
    return Sub.apply(a, b)


def mul(a: Tensor, b: Tensor) -> Tensor:
    return Mul.apply(a, b)


def neg(a: Tensor) -> Tensor:
    return Neg.apply(a)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    return Reshape.apply(a, shape)


def moveaxis(a: Tensor, source: int, destination: int) -> Tensor:
    return MoveAxis.apply(a, source, destination)


def pad(a: Tensor, pad_width: Sequence[tuple[int, int]], value: float = 0.0) -> Tensor:
    return Pad.apply(a, pad_width, mode="constant", value=value)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    return Concat.apply(*tensors, axis=axis)


def flip(a: Tensor, axis: int | tuple[int, ...]) -> Tensor:
    return Flip.apply(a, axis)


def zero_stuff(a: Tensor, stride: tuple[int, ...], first_axis: int = 2) -> Tensor:
    return ZeroStuff.apply(a, stride, first_axis)
