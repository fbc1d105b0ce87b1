"""N-dimensional convolution, transposed convolution and pooling.

The convolution is dimension agnostic (the same code path serves the 2D
and 3D MGDiffNet variants).  *How* each conv executes is decided by the
planning engine in :mod:`repro.backend.conv_plan`: per-offset
``tensordot`` contractions (O(input) peak memory — the property that lets
the 3D U-Net run on modest hosts) or a single im2col/GEMM (fastest for
the small-kernel/many-channel signatures of the U-Net trunk).  Plans are
memoized per (shape, kernel, stride) signature, so steady-state training
pays a dict lookup.  Transposed convolutions always take the planner's
output-scatter engine; the zero-stuff composition is kept as a plain
function, the reference the parity tests compare it against.

Layouts follow the common deep-learning convention:

* inputs  ``(N, C_in, *spatial)``
* conv weights ``(C_out, C_in, *kernel)``
* transposed-conv weights ``(C_in, C_out, *kernel)``
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..backend import ops as B
from ..backend import realize
from ..backend.conv_plan import (
    plan_conv, plan_conv_transpose, run_conv_backward, run_conv_forward,
    run_conv_transpose_backward, run_conv_transpose_forward,
)
from .function import Context, Function
from .tensor import Tensor
from . import ops_basic as ob

__all__ = [
    "conv_nd", "conv_transpose_nd", "max_pool_nd", "avg_pool_nd",
    "conv_output_shape", "conv_transpose_output_shape", "tuplify",
]


def tuplify(value: int | Sequence[int], ndim: int) -> tuple[int, ...]:
    """Broadcast a scalar hyperparameter to a per-axis tuple."""
    if isinstance(value, int):
        return (value,) * ndim
    value = tuple(int(v) for v in value)
    if len(value) != ndim:
        raise ValueError(f"expected {ndim} values, got {value!r}")
    return value


def conv_output_shape(spatial: Sequence[int], kernel: Sequence[int],
                      stride: Sequence[int], padding: Sequence[int]) -> tuple[int, ...]:
    """Spatial output shape of an N-d convolution."""
    out = []
    for s, k, st, p in zip(spatial, kernel, stride, padding):
        o = (s + 2 * p - k) // st + 1
        if o <= 0:
            raise ValueError(
                f"conv output size {o} <= 0 for input {s}, kernel {k}, "
                f"stride {st}, padding {p}")
        out.append(o)
    return tuple(out)


def conv_transpose_output_shape(spatial: Sequence[int], kernel: Sequence[int],
                                stride: Sequence[int], padding: Sequence[int],
                                output_padding: Sequence[int]) -> tuple[int, ...]:
    """Spatial output shape of an N-d transposed convolution."""
    return tuple((s - 1) * st - 2 * p + k + op
                 for s, k, st, p, op in zip(spatial, kernel, stride, padding, output_padding))


class ConvNd(Function):
    """N-dimensional cross-correlation (the deep-learning 'convolution').

    Execution strategy (tensordot vs im2col) is delegated to the memoized
    conv planner; both paths are numerically equivalent and both are
    exercised by the parity tests.
    """

    @staticmethod
    def forward(ctx: Context, x: np.ndarray, w: np.ndarray, b: np.ndarray | None,
                stride: tuple[int, ...], padding: tuple[int, ...]) -> np.ndarray:
        # The planner works on concrete strided buffers: crossing into it
        # is a realize barrier for the lazy backend.
        x, w = realize(x), realize(w)
        nd = x.ndim - 2
        n, cin = x.shape[:2]
        cout = w.shape[0]
        kernel = w.shape[2:]
        if w.shape[1] != cin:
            raise ValueError(f"weight C_in {w.shape[1]} != input C_in {cin}")

        if any(padding):
            padw = ((0, 0), (0, 0)) + tuple((p, p) for p in padding)
            xp = realize(B.pad(x, padw))
        else:
            xp = x
        out_spatial = conv_output_shape(xp.shape[2:], kernel, stride, (0,) * nd)

        plan = plan_conv(x.shape, w.shape, stride, padding, x.dtype)
        out = run_conv_forward(plan, xp, w, stride, out_spatial)
        if b is not None:
            # Dispatch the epilogue through the registry so the lazy
            # backend can fuse conv -> bias-add -> activation.
            out = B.asarray(out) + realize(b).reshape((1, cout) + (1,) * nd)

        ctx.save_for_backward(xp, w)
        ctx.meta.update(stride=stride, padding=padding, kernel=kernel,
                        out_spatial=out_spatial, has_bias=b is not None,
                        x_shape=x.shape, plan=plan)
        return out

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        xp, w = ctx.saved
        stride = ctx.meta["stride"]
        padding = ctx.meta["padding"]
        kernel = ctx.meta["kernel"]
        out_spatial = ctx.meta["out_spatial"]
        plan = ctx.meta["plan"]
        nd = len(kernel)

        grad = realize(grad)
        gmoved = realize(B.moveaxis(grad, 1, -1))            # (N, *So, Cout)
        dxp, dw = run_conv_backward(plan, xp, w, gmoved, stride, out_spatial)
        # Strip padding.
        if any(padding):
            sl = (slice(None), slice(None)) + tuple(
                slice(p, s - p if p else None)
                for p, s in zip(padding, dxp.shape[2:]))
            dx = dxp[sl]
        else:
            dx = dxp
        db = None
        if ctx.meta["has_bias"]:
            db = grad.sum(axis=(0,) + tuple(range(2, 2 + nd)))
        return dx, dw, db, None, None


class ConvTransposeNd(Function):
    """N-dimensional transposed convolution via the output-scatter plan.

    Contracts input channels against the kernel and scatter-adds each tap
    directly into the (strided) output — no zero-stuffed intermediate is
    ever materialized, unlike the composed reference path.  The data
    gradient is a planned *forward* convolution of the re-padded output
    gradient, and the weight gradient a single strided-window
    contraction, so both directions stay on the GEMM engines.
    """

    @staticmethod
    def forward(ctx: Context, x: np.ndarray, w: np.ndarray, b: np.ndarray | None,
                stride: tuple[int, ...], padding: tuple[int, ...],
                output_padding: tuple[int, ...]) -> np.ndarray:
        # The scatter engines work on concrete strided buffers: crossing
        # into them is a realize barrier for the lazy backend.
        x, w = realize(x), realize(w)
        nd = x.ndim - 2
        cin, cout = w.shape[:2]
        if x.shape[1] != cin:
            raise ValueError(f"weight C_in {w.shape[0]} != input C_in {x.shape[1]}")

        plan = plan_conv_transpose(x.shape, w.shape, stride, padding,
                                   output_padding, x.dtype)
        out = run_conv_transpose_forward(plan, x, w)
        if b is not None:
            # Dispatch the epilogue through the registry so the lazy
            # backend can fuse the bias-add into the following activation.
            out = B.asarray(out) + realize(b).reshape((1, cout) + (1,) * nd)

        ctx.save_for_backward(x, w)
        ctx.meta.update(plan=plan, has_bias=b is not None, nd=nd)
        return out

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        x, w = ctx.saved
        plan = ctx.meta["plan"]
        nd = ctx.meta["nd"]
        grad = realize(grad)
        dx, dw = run_conv_transpose_backward(plan, x, w, grad)
        db = None
        if ctx.meta["has_bias"]:
            db = grad.sum(axis=(0,) + tuple(range(2, 2 + nd)))
        return dx, dw, db, None, None, None


class MaxPoolNd(Function):
    """Non-overlapping max pooling (stride == kernel); sizes must divide."""

    @staticmethod
    def forward(ctx: Context, x: np.ndarray, kernel: tuple[int, ...]) -> np.ndarray:
        nd = x.ndim - 2
        spatial = x.shape[2:]
        for s, k in zip(spatial, kernel):
            if s % k:
                raise ValueError(f"spatial size {s} not divisible by pool {k}")
        new_shape = x.shape[:2]
        for s, k in zip(spatial, kernel):
            new_shape += (s // k, k)
        windows = x.reshape(new_shape)
        pool_axes = tuple(3 + 2 * i for i in range(nd))
        out = windows.max(axis=pool_axes, keepdims=True)
        mask = windows == out
        counts = mask.sum(axis=pool_axes, keepdims=True)
        ctx.meta.update(mask=mask, counts=counts, pool_axes=pool_axes,
                        x_shape=x.shape, new_shape=new_shape)
        return out.squeeze(axis=pool_axes)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        mask = ctx.meta["mask"]
        counts = ctx.meta["counts"]
        pool_axes = ctx.meta["pool_axes"]
        g = grad
        for ax in pool_axes:
            g = B.expand_dims(g, ax)
        dx = (mask * (g / counts)).reshape(ctx.meta["x_shape"])
        return dx, None


class AvgPoolNd(Function):
    """Non-overlapping average pooling (stride == kernel)."""

    @staticmethod
    def forward(ctx: Context, x: np.ndarray, kernel: tuple[int, ...]) -> np.ndarray:
        nd = x.ndim - 2
        spatial = x.shape[2:]
        for s, k in zip(spatial, kernel):
            if s % k:
                raise ValueError(f"spatial size {s} not divisible by pool {k}")
        new_shape = x.shape[:2]
        for s, k in zip(spatial, kernel):
            new_shape += (s // k, k)
        pool_axes = tuple(3 + 2 * i for i in range(nd))
        out = x.reshape(new_shape).mean(axis=pool_axes)
        ctx.meta.update(pool_axes=pool_axes, x_shape=x.shape, kernel=kernel,
                        count=math.prod(kernel))
        return out

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        pool_axes = ctx.meta["pool_axes"]
        kernel = ctx.meta["kernel"]
        shape = ctx.meta["x_shape"]
        g = grad / ctx.meta["count"]
        for ax in pool_axes:
            g = B.expand_dims(g, ax)
        # Broadcast each singleton pool axis back to its kernel extent.
        target = list(g.shape)
        for k, ax in zip(kernel, pool_axes):
            target[ax] = k
        dx = B.broadcast_to(g, target).reshape(shape).copy()
        return dx, None


def conv_nd(x: Tensor, w: Tensor, b: Tensor | None = None,
            stride: int | Sequence[int] = 1,
            padding: int | Sequence[int] = 0) -> Tensor:
    """Functional N-d convolution over Tensor operands."""
    nd = x.ndim - 2
    return ConvNd.apply(x, w, b, tuplify(stride, nd), tuplify(padding, nd))


def _conv_transpose_args(x: Tensor, w: Tensor, stride, padding,
                         output_padding):
    """Per-axis ``(stride, padding, output_padding)`` of a transposed
    convolution, validated against the kernel."""
    nd = x.ndim - 2
    stride_t = tuplify(stride, nd)
    padding_t = tuplify(padding, nd)
    outpad_t = tuplify(output_padding, nd)
    for k, p, op in zip(w.shape[2:], padding_t, outpad_t):
        if k - 1 - p < 0:
            raise ValueError("padding larger than kernel-1 is unsupported")
        if op >= max(stride_t):
            raise ValueError("output_padding must be < stride")
    return stride_t, padding_t, outpad_t


def conv_transpose_nd(x: Tensor, w: Tensor, b: Tensor | None = None,
                      stride: int | Sequence[int] = 1,
                      padding: int | Sequence[int] = 0,
                      output_padding: int | Sequence[int] = 0) -> Tensor:
    """Functional N-d transposed convolution: the planned output-scatter
    GEMM engine (:class:`ConvTransposeNd`) — no zero-stuffed
    intermediate, dedicated backward."""
    return ConvTransposeNd.apply(
        x, w, b, *_conv_transpose_args(x, w, stride, padding, output_padding))


def conv_transpose_nd_composed(x: Tensor, w: Tensor, b: Tensor | None = None,
                               stride: int | Sequence[int] = 1,
                               padding: int | Sequence[int] = 0,
                               output_padding: int | Sequence[int] = 0
                               ) -> Tensor:
    """Reference semantics of :func:`conv_transpose_nd`: the composition
    of differentiable primitives (zero-stuffing, padding, weight flip,
    channel transpose, stride-1 conv) the scatter plan is tested against.
    """
    nd = x.ndim - 2
    stride_t, padding_t, outpad_t = _conv_transpose_args(
        x, w, stride, padding, output_padding)
    xz = ob.zero_stuff(x, stride_t) if any(s > 1 for s in stride_t) else x
    padw = [(0, 0), (0, 0)] + [
        (k - 1 - p, k - 1 - p + op)
        for k, p, op in zip(w.shape[2:], padding_t, outpad_t)]
    xp = ob.pad(xz, padw)
    wf = ob.flip(w, axis=tuple(range(2, 2 + nd)))
    wt = ob.moveaxis(wf, 0, 1)  # (Cout, Cin, *K)
    return conv_nd(xp, wt, b, stride=1, padding=0)


def max_pool_nd(x: Tensor, kernel: int | Sequence[int] = 2) -> Tensor:
    nd = x.ndim - 2
    return MaxPoolNd.apply(x, tuplify(kernel, nd))


def avg_pool_nd(x: Tensor, kernel: int | Sequence[int] = 2) -> Tensor:
    nd = x.ndim - 2
    return AvgPoolNd.apply(x, tuplify(kernel, nd))
