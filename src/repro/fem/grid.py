"""Uniform nodal grids on the unit hypercube.

Fields are stored as dense arrays of nodal values with shape ``(R,)*d``
(axis 0 = x, axis 1 = y, axis 2 = z, ``ij`` indexing); elements are the
``(R-1)^d`` cells between nodes.  The voxel resolution quoted by the paper
(e.g. 512^3) corresponds to ``R`` nodes per dimension here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["UniformGrid"]


@dataclass(frozen=True)
class UniformGrid:
    """Uniform grid with ``resolution`` nodes per dimension on [0, 1]^ndim."""

    ndim: int
    resolution: int

    def __post_init__(self) -> None:
        if self.ndim < 1:
            raise ValueError("ndim must be >= 1")
        if self.resolution < 2:
            raise ValueError("resolution must be >= 2 (need at least one element)")

    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> tuple[int, ...]:
        """Nodal array shape."""
        return (self.resolution,) * self.ndim

    @property
    def num_nodes(self) -> int:
        return self.resolution ** self.ndim

    @property
    def element_shape(self) -> tuple[int, ...]:
        return (self.resolution - 1,) * self.ndim

    @property
    def h(self) -> float:
        """Grid spacing."""
        return 1.0 / (self.resolution - 1)

    @cached_property
    def axes(self) -> tuple[np.ndarray, ...]:
        """1D coordinate arrays per axis."""
        ax = np.linspace(0.0, 1.0, self.resolution)
        return (ax,) * self.ndim

    def coordinates(self) -> list[np.ndarray]:
        """Dense meshgrid coordinate arrays, each of nodal shape."""
        return list(np.meshgrid(*self.axes, indexing="ij"))

    # ------------------------------------------------------------------ #
    # Index algebra
    # ------------------------------------------------------------------ #
    def face_mask(self, axis: int, side: int) -> np.ndarray:
        """Boolean nodal mask of the grid face ``axis``/``side`` (0=lo, 1=hi)."""
        mask = np.zeros(self.shape, dtype=bool)
        idx = [slice(None)] * self.ndim
        idx[axis] = 0 if side == 0 else -1
        mask[tuple(idx)] = True
        return mask

    # ------------------------------------------------------------------ #
    # Hierarchy
    # ------------------------------------------------------------------ #
    def can_coarsen(self) -> bool:
        """True if (R-1) is even and the coarse grid keeps >= 1 element."""
        return (self.resolution - 1) % 2 == 0 and self.resolution >= 3

    def coarsen(self) -> "UniformGrid":
        """Grid with half the elements per dimension (nodes at even strides)."""
        if not self.can_coarsen():
            raise ValueError(f"grid of resolution {self.resolution} cannot coarsen")
        return UniformGrid(self.ndim, (self.resolution - 1) // 2 + 1)

    def __repr__(self) -> str:
        return f"UniformGrid({self.ndim}d, {'x'.join([str(self.resolution)] * self.ndim)})"
