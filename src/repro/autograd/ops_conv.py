"""N-dimensional convolution and transposed convolution.

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
A convolution may take its input as channel parts (the decoder's
up-sampled map and its skip), read in place instead of concatenated.
The zero-stuff composition of the transposed convolution is kept as a
plain function, the reference the parity tests compare against.

Layouts follow the common deep-learning convention:

* inputs  ``(N, C_in, *spatial)``
* conv weights ``(C_out, C_in, *kernel)``
* transposed-conv weights ``(C_in, C_out, *kernel)``
"""

from __future__ import annotations

from itertools import accumulate
from typing import Sequence

import numpy as np

from ..backend import ops as B
from ..backend import realize
from ..backend.conv_plan import (
    conv_backward_data, conv_backward_weight, conv_forward, plan_conv,
)
from .function import Context, Function
from .tensor import Tensor

__all__ = [
    "conv_nd", "conv_transpose_nd",
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
                                stride: Sequence[int], padding: Sequence[int]
                                ) -> tuple[int, ...]:
    """Spatial output shape of an N-d transposed convolution."""
    return tuple((s - 1) * st - 2 * p + k
                 for s, k, st, p in zip(spatial, kernel, stride, padding))


def _add_bias(out: np.ndarray, b: np.ndarray | None) -> np.ndarray:
    """The transposed conv's bias epilogue, dispatched through the registry
    so the lazy backend can fuse bias-add -> activation."""
    if b is None:
        return out
    return B.asarray(out) + realize(b).reshape((1, -1) + (1,) * (out.ndim - 2))


def _bias_grad(needed: bool, grad: np.ndarray) -> np.ndarray | None:
    if not needed:
        return None
    return grad.sum(axis=(0,) + tuple(range(2, grad.ndim)))


class ConvNd(Function):
    """N-dimensional cross-correlation (the deep-learning 'convolution').

    The input comes last, as one or more channel *parts* whose
    concatenation along the channels is the convolved tensor: the
    decoder passes ``(up, skip)`` and the engine copies each part
    straight into its scratch, so the concatenation is never built.  The
    data gradient splits into the parts' gradients as ``Concat`` splits
    its own.  The *unpadded* parts are what is saved for backward: the
    engine pads into pooled scratch on both passes, so no padded copy
    outlives the call.  The bias is added — and with ``negative_slope``
    the LeakyReLU applied, forward only — by the engine, chunk by chunk.
    """

    @staticmethod
    def forward(ctx: Context, w: np.ndarray, b: np.ndarray | None,
                stride: tuple[int, ...], padding: tuple[int, ...],
                negative_slope: float | None, *parts: np.ndarray
                ) -> np.ndarray:
        if negative_slope is not None and any(ctx.needs_input_grad):
            raise ValueError("the fused LeakyReLU has no backward: apply "
                             "leaky_relu as its own op when recording")
        # The engine works on concrete strided buffers: crossing into it
        # is a realize barrier for the lazy backend.
        w, parts = realize(w), tuple(realize(x) for x in parts)
        lead = parts[0].shape
        for x in parts:
            if x.shape[:1] + x.shape[2:] != lead[:1] + lead[2:]:
                raise ValueError(f"channel parts {x.shape} and {lead} "
                                 f"differ outside the channel axis")
        sizes = [x.shape[1] for x in parts]
        x_shape = lead[:1] + (sum(sizes),) + lead[2:]
        if w.shape[1] != x_shape[1]:
            raise ValueError(
                f"weight C_in {w.shape[1]} != input C_in {x_shape[1]}")
        conv_output_shape(x_shape[2:], w.shape[2:], stride, padding)

        plan = plan_conv(x_shape, w.shape, stride, padding,
                         np.result_type(*(x.dtype for x in parts), w.dtype))
        ctx.save_for_backward(parts, w)
        ctx.meta["plan"] = plan
        ctx.meta["splits"] = list(accumulate(sizes))[:-1]
        return conv_forward(plan, parts, w, None if b is None else realize(b),
                            negative_slope)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        parts, w = ctx.saved
        plan = ctx.meta["plan"]
        need_w = ctx.needs_input_grad[0]
        grad = realize(grad)
        dparts = (None,) * len(parts)
        if any(ctx.needs_input_grad[5:]):
            dparts = B.split(conv_backward_data(plan, grad, w),
                             ctx.meta["splits"], axis=1)
        return (conv_backward_weight(plan, parts, grad) if need_w else None,
                _bias_grad(ctx.needs_input_grad[1], grad), None, None, None,
                *dparts)


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
                stride: tuple[int, ...], padding: tuple[int, ...]
                ) -> np.ndarray:
        # The engine works on concrete strided buffers: crossing into it
        # is a realize barrier for the lazy backend.
        x, w = realize(x), realize(w)
        cin, cout = w.shape[:2]
        if x.shape[1] != cin:
            raise ValueError(f"weight C_in {cin} != input C_in {x.shape[1]}")

        out_spatial = conv_transpose_output_shape(
            x.shape[2:], w.shape[2:], stride, padding)
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
                _bias_grad(ctx.needs_input_grad[2], grad), None, None)


def conv_nd(x: Tensor | Sequence[Tensor], w: Tensor, b: Tensor | None = None,
            stride: int | Sequence[int] = 1,
            padding: int | Sequence[int] = 0,
            negative_slope: float | None = None) -> Tensor:
    """Functional N-d convolution over Tensor operands; with
    ``negative_slope`` (under ``no_grad`` only) conv -> LeakyReLU.

    ``x`` may be a list or tuple of channel parts: the convolution of
    ``concat(x, axis=1)``, computed without building it."""
    parts = tuple(x) if isinstance(x, (list, tuple)) else (x,)
    nd = parts[0].ndim - 2
    return ConvNd.apply(w, b, tuplify(stride, nd), tuplify(padding, nd),
                        negative_slope, *parts)


def conv_transpose_nd(x: Tensor, w: Tensor, b: Tensor | None = None,
                      stride: int | Sequence[int] = 1,
                      padding: int | Sequence[int] = 0) -> Tensor:
    """Functional N-d transposed convolution (:class:`ConvTransposeNd`):
    the conv engine run as an adjoint — no zero-stuffed intermediate."""
    nd = x.ndim - 2
    stride, padding = tuplify(stride, nd), tuplify(padding, nd)
    if any(k - 1 - p < 0 for k, p in zip(w.shape[2:], padding)):
        raise ValueError("padding larger than kernel-1 is unsupported")
    return ConvTransposeNd.apply(x, w, b, stride, padding)
