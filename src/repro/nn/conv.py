"""Convolution layers (dimension-agnostic) for the fully convolutional
MGDiffNet.  Because the kernels are resolution independent, the same layer
instance can be applied at every multigrid level (Sec. 3.1.2, property 1).
"""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor, conv_nd, conv_transpose_nd, tuplify
from ..utils.seeding import make_rng
from . import init
from .module import Module, Parameter

__all__ = ["ConvNd", "ConvTransposeNd"]


class ConvNd(Module):
    """N-dimensional convolution layer.

    Parameters
    ----------
    ndim:
        Spatial dimensionality (2 or 3 for MGDiffNet).
    in_channels, out_channels, kernel_size, stride, padding:
        Standard conv hyperparameters; scalars broadcast over axes.
    bias:
        Whether to learn an additive bias per output channel.
    """

    def __init__(self, ndim: int, in_channels: int, out_channels: int,
                 kernel_size: int | tuple[int, ...] = 3,
                 stride: int | tuple[int, ...] = 1,
                 padding: int | tuple[int, ...] = 0,
                 bias: bool = True,
                 rng: np.random.Generator | int | None = None,
                 negative_slope: float = 0.0) -> None:
        super().__init__()
        rng = make_rng(rng)
        self.ndim = ndim
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = tuplify(kernel_size, ndim)
        self.stride = tuplify(stride, ndim)
        self.padding = tuplify(padding, ndim)
        wshape = (out_channels, in_channels, *self.kernel_size)
        self.weight = Parameter(init.kaiming_normal(
            wshape, rng, negative_slope=negative_slope))
        self.bias = Parameter(init.zeros((out_channels,))) if bias else None

    def forward(self, x: Tensor | tuple[Tensor, ...]) -> Tensor:
        """Convolve ``x``, or the channel concatenation of the parts in a
        tuple ``x`` without building it (:func:`repro.autograd.conv_nd`)."""
        for part in x if isinstance(x, tuple) else (x,):
            if part.ndim != self.ndim + 2:
                raise ValueError(f"expected {self.ndim + 2}-d input "
                                 f"(N, C, spatial), got {part.ndim}-d")
        return conv_nd(x, self.weight, self.bias,
                       stride=self.stride, padding=self.padding)

    def __repr__(self) -> str:
        return (f"ConvNd({self.ndim}d, {self.in_channels}->{self.out_channels}, "
                f"k={self.kernel_size}, s={self.stride}, p={self.padding})")


class ConvTransposeNd(Module):
    """N-dimensional transposed convolution (learned upsampling)."""

    def __init__(self, ndim: int, in_channels: int, out_channels: int,
                 kernel_size: int | tuple[int, ...] = 2,
                 stride: int | tuple[int, ...] = 2,
                 padding: int | tuple[int, ...] = 0,
                 bias: bool = True,
                 rng: np.random.Generator | int | None = None) -> None:
        super().__init__()
        rng = make_rng(rng)
        self.ndim = ndim
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = tuplify(kernel_size, ndim)
        self.stride = tuplify(stride, ndim)
        self.padding = tuplify(padding, ndim)
        wshape = (in_channels, out_channels, *self.kernel_size)
        self.weight = Parameter(init.kaiming_normal(wshape, rng))
        self.bias = Parameter(init.zeros((out_channels,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != self.ndim + 2:
            raise ValueError(
                f"expected {self.ndim + 2}-d input (N, C, spatial), got {x.ndim}-d")
        return conv_transpose_nd(x, self.weight, self.bias,
                                 stride=self.stride, padding=self.padding)

    def __repr__(self) -> str:
        return (f"ConvTransposeNd({self.ndim}d, "
                f"{self.in_channels}->{self.out_channels}, "
                f"k={self.kernel_size}, s={self.stride})")
