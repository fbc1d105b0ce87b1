"""N-dimensional convolution, transposed convolution and pooling.

The convolution is dimension agnostic (the same code path serves the 2D
and 3D MGDiffNet variants).  Both :class:`ConvNd` and
:class:`ConvTransposeNd` are thin autograd wrappers over the one engine
in :mod:`repro.backend.conv_plan` — ``conv_forward``,
``conv_backward_data``, ``conv_backward_weight`` — which works channels
first throughout: outputs and gradients come back C-contiguous in the
``(N, C, *spatial)`` layout every downstream op reads.  A transposed
convolution is the adjoint of a convolution, so it runs the same three
primitives with their roles swapped.  The geometry of each (shape,
kernel, stride, padding) signature is memoized, so steady-state training
pays a dict lookup; the input saved for backward is the unpadded one.
The zero-stuff composition of the transposed convolution is kept as a
plain function, the reference the parity tests compare against.

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
    conv_backward_data, conv_backward_weight, conv_forward, plan_conv,
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


def _add_bias(out: np.ndarray, b: np.ndarray | None) -> np.ndarray:
    """The transposed conv's bias epilogue, dispatched through the registry
    so the lazy backend can fuse bias-add -> activation."""
    if b is None:
        return out
    return B.asarray(out) + realize(b).reshape((1, -1) + (1,) * (out.ndim - 2))


def _bias_grad(ctx: Context, grad: np.ndarray) -> np.ndarray | None:
    if not ctx.needs_input_grad[2]:
        return None
    return grad.sum(axis=(0,) + tuple(range(2, grad.ndim)))


class ConvNd(Function):
    """N-dimensional cross-correlation (the deep-learning 'convolution').

    The *unpadded* input is what is saved for backward: the engine pads
    into pooled scratch on both passes, so no padded copy outlives the
    call.  The bias is added — and with ``negative_slope`` the LeakyReLU
    applied, forward only — by the engine, chunk by chunk.
    """

    @staticmethod
    def forward(ctx: Context, x: np.ndarray, w: np.ndarray, b: np.ndarray | None,
                stride: tuple[int, ...], padding: tuple[int, ...],
                negative_slope: float | None = None) -> np.ndarray:
        if negative_slope is not None and any(ctx.needs_input_grad):
            raise ValueError("the fused LeakyReLU has no backward: apply "
                             "leaky_relu as its own op when recording")
        # The engine works on concrete strided buffers: crossing into it
        # is a realize barrier for the lazy backend.
        x, w = realize(x), realize(w)
        if w.shape[1] != x.shape[1]:
            raise ValueError(
                f"weight C_in {w.shape[1]} != input C_in {x.shape[1]}")
        conv_output_shape(x.shape[2:], w.shape[2:], stride, padding)

        plan = plan_conv(x.shape, w.shape, stride, padding,
                         np.result_type(x.dtype, w.dtype))
        ctx.save_for_backward(x, w)
        ctx.meta["plan"] = plan
        return conv_forward(plan, x, w, None if b is None else realize(b),
                            negative_slope)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        x, w = ctx.saved
        plan = ctx.meta["plan"]
        need_x, need_w = ctx.needs_input_grad[:2]
        grad = realize(grad)
        return (conv_backward_data(plan, grad, w) if need_x else None,
                conv_backward_weight(plan, x, grad) if need_w else None,
                _bias_grad(ctx, grad), None, None, None)


class ConvTransposeNd(Function):
    """N-dimensional transposed convolution: the adjoint of the
    convolution that maps its output back onto its input.

    That convolution has the same weights (``(C_in, C_out, *K)`` is its
    ``(C_out, C_in, *K)``), stride and padding, so the three engine
    primitives serve with their roles swapped: forward is its data
    gradient (no zero-stuffed intermediate, unlike the composed
    reference), the data gradient is its forward, and the weight
    gradient is its weight gradient with input and gradient exchanged.
    """

    @staticmethod
    def forward(ctx: Context, x: np.ndarray, w: np.ndarray, b: np.ndarray | None,
                stride: tuple[int, ...], padding: tuple[int, ...],
                output_padding: tuple[int, ...]) -> np.ndarray:
        # The engine works on concrete strided buffers: crossing into it
        # is a realize barrier for the lazy backend.
        x, w = realize(x), realize(w)
        cin, cout = w.shape[:2]
        if x.shape[1] != cin:
            raise ValueError(f"weight C_in {cin} != input C_in {x.shape[1]}")

        out_spatial = conv_transpose_output_shape(
            x.shape[2:], w.shape[2:], stride, padding, output_padding)
        plan = plan_conv((x.shape[0], cout) + out_spatial, w.shape, stride,
                         padding, np.result_type(x.dtype, w.dtype))
        ctx.save_for_backward(x, w)
        ctx.meta["plan"] = plan
        return _add_bias(conv_backward_data(plan, x, w), b)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        x, w = ctx.saved
        plan = ctx.meta["plan"]
        need_x, need_w = ctx.needs_input_grad[:2]
        grad = realize(grad)
        return (conv_forward(plan, grad, w) if need_x else None,
                conv_backward_weight(plan, grad, x) if need_w else None,
                _bias_grad(ctx, grad), None, None, None)


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
            padding: int | Sequence[int] = 0,
            negative_slope: float | None = None) -> Tensor:
    """Functional N-d convolution over Tensor operands; with
    ``negative_slope`` (under ``no_grad`` only) conv -> LeakyReLU."""
    nd = x.ndim - 2
    return ConvNd.apply(x, w, b, tuplify(stride, nd), tuplify(padding, nd),
                        negative_slope)


def _conv_transpose_args(x: Tensor, w: Tensor, stride, padding,
                         output_padding):
    """Per-axis ``(stride, padding, output_padding)`` of a transposed
    convolution, validated against the kernel."""
    nd = x.ndim - 2
    stride_t = tuplify(stride, nd)
    padding_t = tuplify(padding, nd)
    outpad_t = tuplify(output_padding, nd)
    for k, st, p, op in zip(w.shape[2:], stride_t, padding_t, outpad_t):
        if k - 1 - p < 0:
            raise ValueError("padding larger than kernel-1 is unsupported")
        if op >= st:
            raise ValueError("output_padding must be < stride on every axis")
    return stride_t, padding_t, outpad_t


def conv_transpose_nd(x: Tensor, w: Tensor, b: Tensor | None = None,
                      stride: int | Sequence[int] = 1,
                      padding: int | Sequence[int] = 0,
                      output_padding: int | Sequence[int] = 0) -> Tensor:
    """Functional N-d transposed convolution (:class:`ConvTransposeNd`):
    the conv engine run as an adjoint — no zero-stuffed intermediate."""
    return ConvTransposeNd.apply(
        x, w, b, *_conv_transpose_args(x, w, stride, padding, output_padding))


def conv_transpose_nd_composed(x: Tensor, w: Tensor, b: Tensor | None = None,
                               stride: int | Sequence[int] = 1,
                               padding: int | Sequence[int] = 0,
                               output_padding: int | Sequence[int] = 0
                               ) -> Tensor:
    """Reference semantics of :func:`conv_transpose_nd`: the composition
    of differentiable primitives (zero-stuffing, padding, weight flip,
    channel transpose, stride-1 conv) it is tested against.
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
