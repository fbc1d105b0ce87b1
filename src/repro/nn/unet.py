"""Dimension-agnostic U-Net — the Gnn architecture of MGDiffNet.

Satisfies the three properties of Sec. 3.1.2 of the paper:

1. all connections are convolutions / transposed convolutions;
2. every down/up-sampling changes resolution by exactly a factor of two;
3. 'same' padding wards off fence effects.

Because kernels are resolution independent, one instance processes inputs
at every multigrid level.  The encoder starts at ``base_filters`` and
doubles the channel count per depth, mirroring the paper's configuration
(base 16, depth 3, LeakyReLU inner activations, Sigmoid output).
"""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor, concat, conv_nd, is_grad_enabled
from ..backend import ops as B
from ..utils.seeding import make_rng, spawn_rngs
from .activation import LeakyReLU, Sigmoid
from .container import ModuleList, Sequential
from .conv import ConvNd, ConvTransposeNd
from .module import Module
from .norm import BatchNorm
from .pooling import MaxPool

__all__ = ["ConvBlock", "UpBlock", "RefinementBlock", "UNet"]


class ConvBlock(Module):
    """Conv(k3, same) -> norm -> LeakyReLU — the paper's basic block.

    ``use_batchnorm`` selects the paper's BatchNorm; pass
    ``norm='group'`` instead for the batch-size-robust GroupNorm variant
    (relevant at the paper's local batch of 2).

    In evaluation mode under ``no_grad`` a BatchNorm block is *one* engine
    call: the running-statistics affine ``y * s + t`` is folded into the
    conv's weights and bias per call (``w * s``, ``b * s + t``: a few
    microseconds, and never stale) and the engine applies bias and
    LeakyReLU chunk by chunk.  In training mode a BatchNorm block is two
    tape ops, the conv and BatchNorm with the LeakyReLU fused in as its
    epilogue (:class:`repro.autograd.ops_norm.BatchNorm`).  An
    evaluation-mode block with the tape on, and every GroupNorm or
    ``norm='none'`` block, runs op by op.
    """

    def __init__(self, ndim: int, in_channels: int, out_channels: int,
                 rng: np.random.Generator, negative_slope: float = 0.01,
                 use_batchnorm: bool = True, norm: str | None = None) -> None:
        super().__init__()
        self.conv = ConvNd(ndim, in_channels, out_channels, kernel_size=3,
                           padding=1, rng=rng, negative_slope=negative_slope)
        if norm is None:
            norm = "batch" if use_batchnorm else "none"
        if norm == "batch":
            self.bn: Module | None = BatchNorm(out_channels)
        elif norm == "group":
            from .groupnorm import GroupNorm

            groups = min(4, out_channels)
            while out_channels % groups:
                groups -= 1
            self.bn = GroupNorm(groups, out_channels)
        elif norm == "none":
            self.bn = None
        else:
            raise ValueError(f"unknown norm {norm!r}")
        self.act = LeakyReLU(negative_slope)

    def forward(self, x: Tensor) -> Tensor:
        bn, conv = self.bn, self.conv
        if (isinstance(bn, BatchNorm) and not self.training
                and not is_grad_enabled()):
            scale = bn.gamma.data / B.sqrt(bn.running_var + bn.eps)
            shift = bn.beta.data - bn.running_mean * scale
            if conv.bias is not None:
                shift = shift + conv.bias.data * scale
            return conv_nd(
                x, conv.weight.data * scale.reshape((-1,) + (1,) * (x.ndim - 1)),
                shift, conv.stride, conv.padding, self.act.negative_slope)
        x = conv(x)
        if isinstance(bn, BatchNorm):
            return bn(x, negative_slope=self.act.negative_slope)
        if bn is not None:
            x = bn(x)
        return self.act(x)


class UpBlock(Module):
    """ConvTranspose(x2) -> concat skip -> ConvBlock."""

    def __init__(self, ndim: int, in_channels: int, skip_channels: int,
                 out_channels: int, rng: np.random.Generator,
                 negative_slope: float = 0.01, use_batchnorm: bool = True) -> None:
        super().__init__()
        self.upconv = ConvTransposeNd(ndim, in_channels, out_channels,
                                      kernel_size=2, stride=2, rng=rng)
        self.block = ConvBlock(ndim, out_channels + skip_channels, out_channels,
                               rng, negative_slope, use_batchnorm)

    def forward(self, x: Tensor, skip: Tensor) -> Tensor:
        x = self.upconv(x)
        x = concat([x, skip], axis=1)
        return self.block(x)


class RefinementBlock(Module):
    """Resolution-preserving refinement added by architectural adaptation.

    One stride-1 transposed convolution followed by one convolution block —
    together with the transpose conv swapped into the last
    :class:`UpBlock`, a single adaptation step adds exactly *one conv layer
    and two transpose conv layers* while removing *one learned transpose
    conv layer* (Sec. 4.1.2 of the paper).
    """

    def __init__(self, ndim: int, channels: int, rng: np.random.Generator,
                 negative_slope: float = 0.01, use_batchnorm: bool = True) -> None:
        super().__init__()
        self.tconv = ConvTransposeNd(ndim, channels, channels, kernel_size=3,
                                     stride=1, padding=1, rng=rng)
        self.act = LeakyReLU(negative_slope)
        self.block = ConvBlock(ndim, channels, channels, rng,
                               negative_slope, use_batchnorm)

    def forward(self, x: Tensor) -> Tensor:
        return self.block(self.act(self.tconv(x)))


class UNet(Module):
    """Fully convolutional encoder/decoder with skip connections.

    Parameters
    ----------
    ndim:
        Spatial dimensionality, 2 or 3.
    in_channels, out_channels:
        Field channels (1 -> 1 for the scalar Poisson problem).
    base_filters:
        Channels of the first encoder stage; doubled per depth (paper: 16).
    depth:
        Number of down/up-sampling stages (paper: 3).  Input spatial sizes
        must be divisible by ``2**depth``.
    downsample:
        ``"conv"`` uses a stride-2 convolution, ``"maxpool"`` a 2x pool.
    final_activation:
        ``"sigmoid"`` (paper) or ``None`` for unconstrained output.
    """

    def __init__(self, ndim: int, in_channels: int = 1, out_channels: int = 1,
                 base_filters: int = 16, depth: int = 3,
                 negative_slope: float = 0.01, downsample: str = "conv",
                 use_batchnorm: bool = True,
                 final_activation: str | None = "sigmoid",
                 rng: np.random.Generator | int | None = None) -> None:
        super().__init__()
        rng = make_rng(rng)
        if ndim not in (2, 3):
            raise ValueError("UNet supports ndim in {2, 3}")
        if depth < 1:
            raise ValueError("depth must be >= 1")
        self.ndim = ndim
        self.depth = depth
        self.base_filters = base_filters
        self.negative_slope = negative_slope
        self.use_batchnorm = use_batchnorm
        self._adaptations = 0

        filters = [base_filters * (2 ** i) for i in range(depth + 1)]
        rngs = iter(spawn_rngs(rng, 4 * depth + 8))

        self.enc_blocks = ModuleList()
        self.downs = ModuleList()
        c_in = in_channels
        for i in range(depth):
            self.enc_blocks.append(ConvBlock(
                ndim, c_in, filters[i], next(rngs), negative_slope, use_batchnorm))
            if downsample == "conv":
                self.downs.append(ConvNd(ndim, filters[i], filters[i],
                                         kernel_size=2, stride=2, rng=next(rngs)))
            elif downsample == "maxpool":
                self.downs.append(MaxPool(2))
            else:
                raise ValueError(f"unknown downsample {downsample!r}")
            c_in = filters[i]

        self.bottleneck = ConvBlock(ndim, filters[depth - 1], filters[depth],
                                    next(rngs), negative_slope, use_batchnorm)

        self.ups = ModuleList()
        for i in reversed(range(depth)):
            self.ups.append(UpBlock(ndim, filters[i + 1], filters[i], filters[i],
                                    next(rngs), negative_slope, use_batchnorm))

        self.refinements = ModuleList()
        self.out_conv = ConvNd(ndim, filters[0], out_channels, kernel_size=1,
                               rng=next(rngs))
        if final_activation == "sigmoid":
            self.final_act: Module | None = Sigmoid()
        elif final_activation is None:
            self.final_act = None
        else:
            raise ValueError(f"unknown final activation {final_activation!r}")

    # ------------------------------------------------------------------ #
    def forward(self, x: Tensor) -> Tensor:
        self.check_input(x)
        return self.head(self.levels(x))

    def levels(self, x: Tensor, level: int = 0) -> Tensor:
        """The U from ``level`` down to the bottleneck and back up: maps
        the encoder input at that level's resolution to the decoder
        output at the same resolution.  ``forward`` is level 0 plus
        :meth:`head`; the tile engine (:mod:`repro.serve.tiling`) enters
        at the first level that fits in one block."""
        if level == self.depth:
            return self.bottleneck(x)
        skip = self.enc_blocks[level](x)
        x = self.levels(self.downs[level](skip), level + 1)
        return self.ups[self.depth - 1 - level](x, skip)

    def head(self, x: Tensor) -> Tensor:
        """Refinements, the 1x1 output conv and the final activation."""
        for ref in self.refinements:
            x = ref(x)
        x = self.out_conv(x)
        if self.final_act is not None:
            x = self.final_act(x)
        return x

    def check_input(self, x: Tensor) -> None:
        if x.ndim != self.ndim + 2:
            raise ValueError(
                f"expected (N, C, {'x'.join(['S'] * self.ndim)}) input, "
                f"got shape {x.shape}")
        div = 2 ** self.depth
        for s in x.shape[2:]:
            if s % div:
                raise ValueError(
                    f"spatial size {s} not divisible by 2**depth={div}")

    @property
    def min_resolution(self) -> int:
        """Smallest spatial size the network accepts."""
        return 2 ** self.depth

    # ------------------------------------------------------------------ #
    def adapt_decoder(self, rng: np.random.Generator | int | None = None) -> None:
        """Architectural adaptation (paper Sec. 4.1.2).

        Swaps the last learned up-convolution for a freshly initialized one
        and appends a resolution-preserving :class:`RefinementBlock` — net
        effect: +1 conv layer, +2 transpose conv layers, −1 learned
        transpose conv layer.  Loss transiently rises and recovers within a
        few dozen minibatches (Table 2 discussion).
        """
        rng = make_rng(rng)
        last: UpBlock = self.ups[len(self.ups) - 1]
        fresh = ConvTransposeNd(self.ndim, last.upconv.in_channels,
                                last.upconv.out_channels, kernel_size=2,
                                stride=2, rng=rng)
        last.upconv = fresh
        self.refinements.append(RefinementBlock(
            self.ndim, self.base_filters, rng, self.negative_slope,
            self.use_batchnorm))
        self._adaptations += 1

    @property
    def num_adaptations(self) -> int:
        return self._adaptations
