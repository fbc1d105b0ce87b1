"""Resolution hierarchies for multigrid training.

Level 1 is the finest resolution (paper convention, Fig. 3); level L the
coarsest.  Each level halves the voxel resolution: R, R/2, R/4, ...
Unlike the nested (2^k + 1) grids of the GMG *solver*, training levels are
independent discretizations of the same continuous domain — the fully
convolutional network consumes each directly.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["GridHierarchy"]


@dataclass(frozen=True)
class GridHierarchy:
    """Resolutions of a multigrid training hierarchy.

    Parameters
    ----------
    finest_resolution:
        Voxel resolution of level 1; must be divisible by
        ``2**(levels - 1)``.
    levels:
        Number of levels (paper uses 3 or 4).
    min_resolution:
        What every level must be a multiple of (the network's
        ``2**depth`` divisibility requirement).
    """

    finest_resolution: int
    levels: int
    min_resolution: int = 4

    def __post_init__(self) -> None:
        if self.levels < 1:
            raise ValueError("levels must be >= 1")
        div = 2 ** (self.levels - 1)
        if self.finest_resolution % div:
            raise ValueError(
                f"finest resolution {self.finest_resolution} not divisible "
                f"by 2**(levels-1) = {div}")
        coarsest = self.coarsest_resolution
        if coarsest < self.min_resolution or coarsest % self.min_resolution:
            raise ValueError(
                f"coarsest level resolution {coarsest} is not a multiple "
                f"of {self.min_resolution} (2**depth)")

    def resolution(self, level: int) -> int:
        """Voxel resolution of ``level`` (1 = finest)."""
        if not 1 <= level <= self.levels:
            raise ValueError(f"level {level} out of range [1, {self.levels}]")
        return self.finest_resolution // (2 ** (level - 1))

    @property
    def resolutions(self) -> list[int]:
        return [self.resolution(l) for l in range(1, self.levels + 1)]

    @property
    def coarsest_resolution(self) -> int:
        return self.finest_resolution // (2 ** (self.levels - 1))

    def __iter__(self):
        return iter(range(1, self.levels + 1))
