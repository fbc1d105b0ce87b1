"""Reduction operations: sum and mean."""

from __future__ import annotations

import math

import numpy as np

from ..backend import ops as B
from .function import Context, Function
from .tensor import Tensor

__all__ = ["sum_", "mean"]


def _normalize_axis(axis, ndim: int) -> tuple[int, ...]:
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % ndim for a in axis)


class Sum(Function):
    @staticmethod
    def forward(ctx: Context, a: np.ndarray, axis=None, keepdims: bool = False) -> np.ndarray:
        ctx.meta["shape"] = a.shape
        ctx.meta["axis"] = _normalize_axis(axis, a.ndim)
        ctx.meta["keepdims"] = keepdims
        return a.sum(axis=axis, keepdims=keepdims)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        shape = ctx.meta["shape"]
        axis = ctx.meta["axis"]
        if not ctx.meta["keepdims"]:
            for ax in sorted(axis):
                grad = B.expand_dims(grad, ax)
        return B.broadcast_to(grad, shape).copy(), None, None


class Mean(Function):
    @staticmethod
    def forward(ctx: Context, a: np.ndarray, axis=None, keepdims: bool = False) -> np.ndarray:
        ctx.meta["shape"] = a.shape
        axes = _normalize_axis(axis, a.ndim)
        ctx.meta["axis"] = axes
        ctx.meta["keepdims"] = keepdims
        ctx.meta["count"] = math.prod(a.shape[ax] for ax in axes)
        return a.mean(axis=axis, keepdims=keepdims)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        shape = ctx.meta["shape"]
        axis = ctx.meta["axis"]
        if not ctx.meta["keepdims"]:
            for ax in sorted(axis):
                grad = B.expand_dims(grad, ax)
        return (B.broadcast_to(grad, shape) / ctx.meta["count"]).copy(), None, None


def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    return Sum.apply(a, axis=axis, keepdims=keepdims)


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    return Mean.apply(a, axis=axis, keepdims=keepdims)
