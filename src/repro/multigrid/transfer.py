"""Field transfer between (non-nested) training resolutions.

Training levels are uniform grids with R, R/2, ... nodes over the same
unit domain, so coarse nodes do not coincide with fine nodes.  Transfer is
separable linear resampling — exact for multilinear fields and the right
notion of restriction/prolongation for *function values* (solution and
coefficient fields).  The paper uses the trained network's forward pass as
the prolongation of the solution; these operators move the data.
"""

from __future__ import annotations

import numpy as np

from ..backend import ops as B

__all__ = ["resample_linear"]


def _resample_axis(arr: np.ndarray, axis: int, new_size: int) -> np.ndarray:
    """Linear interpolation along one axis from n to new_size points,
    endpoints preserved."""
    arr = B.moveaxis(arr, axis, 0)
    n = arr.shape[0]
    if n == new_size:
        return B.moveaxis(arr, 0, axis)
    if n < 2:
        raise ValueError("axis must have at least 2 points")
    pos = np.linspace(0.0, n - 1.0, new_size)
    lo = B.clip(B.floor(pos).astype(int), 0, n - 2)
    w = (pos - lo).reshape((-1,) + (1,) * (arr.ndim - 1))
    out = (1.0 - w) * arr[lo] + w * arr[lo + 1]
    return B.moveaxis(out.astype(arr.dtype), 0, axis)


def resample_linear(field: np.ndarray, new_resolution: int,
                    spatial_axes: tuple[int, ...] | None = None) -> np.ndarray:
    """Separable linear resampling of nodal fields to a new resolution.

    ``spatial_axes`` defaults to all axes; pass e.g. ``(2, 3)`` for batched
    (N, C, H, W) arrays.
    """
    axes = spatial_axes if spatial_axes is not None else tuple(range(field.ndim))
    out = field
    for ax in axes:
        out = _resample_axis(out, ax, new_resolution)
    return out

