"""Model-parallel (spatial domain decomposition) extension.

The paper lists 'extending our approach to allow model-parallel
distributed deep learning' as future work (Sec. 5).  This module
implements the canonical design for fully convolutional nets: split the
field into slabs along one spatial axis across ranks, and exchange halo
layers with neighbours before every convolution so that each rank
computes exactly its slab of the global output.

Provided here for stride-1 'same'/'valid' convolution stacks — the shape
of computation that dominates inference of the trained solver — with
per-layer halo-traffic accounting.  Exactness against the single-rank
result is asserted in tests to machine precision.

The forward half of Sec. 5 for the whole U-Net — stride-2 down/up-sampling,
skip connections, N-d blocks rather than slabs — lives in the tile engine,
:mod:`repro.serve.tiling`: level-wise sweeps in which every block pays only
its own stage's conv radius as halo, built on :func:`extract_padded_block`
below.  This module keeps the rank-to-rank exchange and its traffic
accounting; the backward half (spatial model-parallel *training*) is open.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..backend import ops as B
from ..autograd import Tensor, no_grad
from ..nn.conv import ConvNd

__all__ = ["HaloStats", "split_slabs", "join_slabs", "halo_exchange",
           "extract_padded_block", "model_parallel_conv",
           "ModelParallelConvStack"]


@dataclass
class HaloStats:
    """Accounting of halo-exchange traffic."""

    exchanges: int = 0
    bytes_sent: int = 0

    def charge(self, arrays: list[np.ndarray]) -> None:
        self.exchanges += 1
        self.bytes_sent += int(sum(a.nbytes for a in arrays))


def split_slabs(x: np.ndarray, world_size: int, axis: int = 2
                ) -> list[np.ndarray]:
    """Split a batched field (N, C, *spatial) into per-rank slabs.

    The split axis size must divide evenly: all ranks get equal work,
    matching the paper's load-balance requirement.
    """
    size = x.shape[axis]
    if size % world_size:
        raise ValueError(f"axis size {size} not divisible by {world_size}")
    return [s.copy() for s in B.split(x, world_size, axis=axis)]


def join_slabs(slabs: list[np.ndarray], axis: int = 2) -> np.ndarray:
    """Concatenate rank slabs back into the global field."""
    return B.concatenate(slabs, axis=axis)


def _zero_halo(like: np.ndarray, axis: int, halo: int) -> np.ndarray:
    """Zero-filled halo slab matching ``like`` except along ``axis``."""
    shape = list(like.shape)
    shape[axis] = halo
    return np.zeros(shape, dtype=like.dtype)


def extract_padded_block(x: np.ndarray, axis: int, start: int, stop: int,
                         halo: int) -> tuple[np.ndarray, int]:
    """Slice ``x[..., start:stop, ...]`` along ``axis`` with up to ``halo``
    extra layers of neighbouring data on each side.

    This generalizes :func:`halo_exchange`'s boundary convention from
    equal slabs to arbitrary blocks: where a neighbour exists the halo is
    real data, and at the domain boundary the block is simply *cropped*
    (no zero fill), so a 'same' convolution applied to the block pads the
    physical boundary exactly like the full-field computation does.  This
    is the primitive of the tiled inference path in :mod:`repro.serve`.

    Returns ``(block, core_offset)`` where ``core_offset`` is the index of
    ``start`` inside the returned block along ``axis``.
    """
    size = x.shape[axis]
    if not (0 <= start < stop <= size):
        raise ValueError(f"block [{start}, {stop}) outside axis of size {size}")
    if halo < 0:
        raise ValueError("halo must be >= 0")
    lo = max(start - halo, 0)
    hi = min(stop + halo, size)
    index = [slice(None)] * x.ndim
    index[axis] = slice(lo, hi)
    return x[tuple(index)], start - lo


def halo_exchange(slabs: list[np.ndarray], halo: int, axis: int = 2,
                  stats: HaloStats | None = None) -> list[np.ndarray]:
    """Pad each slab with ``halo`` layers from its neighbours.

    Outermost ranks get zero halos on the domain boundary (matching the
    zero padding of a 'same' convolution).  Returns fresh padded arrays;
    inputs are untouched.
    """
    if halo < 0:
        raise ValueError("halo must be >= 0")
    p = len(slabs)
    if halo == 0:
        return [s.copy() for s in slabs]
    sent: list[np.ndarray] = []
    padded = []
    for r, s in enumerate(slabs):
        pieces = []
        if r > 0:
            left = B.take(slabs[r - 1],
                           range(slabs[r - 1].shape[axis] - halo,
                                 slabs[r - 1].shape[axis]), axis=axis)
            sent.append(left)
        else:
            left = _zero_halo(s, axis, halo)
        pieces.append(left)
        pieces.append(s)
        if r < p - 1:
            right = B.take(slabs[r + 1], range(halo), axis=axis)
            sent.append(right)
        else:
            right = _zero_halo(s, axis, halo)
        pieces.append(right)
        padded.append(B.concatenate(pieces, axis=axis))
    if stats is not None:
        stats.charge(sent)
    return padded


def model_parallel_conv(layer: ConvNd, slabs: list[np.ndarray],
                        axis: int = 2, stats: HaloStats | None = None
                        ) -> list[np.ndarray]:
    """Apply a stride-1 conv layer to sharded input, slab exactness
    guaranteed by a halo exchange of width ``padding`` along the split
    axis.

    Only 'same'-style convs (kernel = 2*padding + 1 on the split axis)
    are supported — the configuration used throughout the U-Net blocks.
    """
    d = axis - 2
    if any(s != 1 for s in layer.stride):
        raise ValueError("model-parallel conv requires stride 1")
    k = layer.kernel_size[d]
    p = layer.padding[d]
    if k != 2 * p + 1:
        raise ValueError(
            f"split-axis kernel {k} and padding {p} must satisfy k == 2p+1")

    padded = halo_exchange(slabs, halo=p, axis=axis, stats=stats)
    out = []
    with no_grad():
        for shard in padded:
            # Padding on the split axis is already provided by the halos.
            pad_spec = list(layer.padding)
            pad_spec[d] = 0
            from ..autograd import conv_nd

            y = conv_nd(Tensor(shard), layer.weight, layer.bias,
                        stride=1, padding=tuple(pad_spec))
            out.append(y.data)
    return out


class ModelParallelConvStack:
    """Inference of a stack of stride-1 conv layers (with optional
    pointwise activations) under slab decomposition.

    Parameters
    ----------
    layers:
        Sequence of (ConvNd, activation-or-None) pairs.  Activations are
        applied pointwise per rank (no communication).
    world_size:
        Number of slabs / simulated ranks.
    axis:
        Spatial axis to split (2 = the x axis of (N, C, X, Y[, Z])).
    """

    def __init__(self, layers, world_size: int, axis: int = 2) -> None:
        if world_size < 1:
            raise ValueError("world_size must be >= 1")
        self.layers = list(layers)
        self.world_size = world_size
        self.axis = axis
        self.stats = HaloStats()

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Run the sharded stack and return the joined global output."""
        slabs = split_slabs(x, self.world_size, self.axis)
        for layer, act in self.layers:
            slabs = model_parallel_conv(layer, slabs, self.axis, self.stats)
            if act is not None:
                with no_grad():
                    slabs = [act(Tensor(s)).data for s in slabs]
        return join_slabs(slabs, self.axis)

    def serial_forward(self, x: np.ndarray) -> np.ndarray:
        """Single-rank reference for exactness checks."""
        with no_grad():
            t = Tensor(x)
            for layer, act in self.layers:
                t = layer(t)
                if act is not None:
                    t = act(t)
        return t.data
