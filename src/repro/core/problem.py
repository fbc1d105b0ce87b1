"""Parametric Poisson problem definitions (Sec. 2.2.1 of the paper).

A :class:`PoissonProblem` bundles the domain discretization at its finest
resolution, the canonical boundary conditions (u = 1 at x = 0, u = 0 at
x = 1, zero flux elsewhere), the Eq. 10 diffusivity family, and cached
per-resolution FEM machinery (energy losses, BC masks, reference solvers)
for every multigrid level.
"""

from __future__ import annotations

import numpy as np

from ..data.dataset import DiffusivityDataset
from ..data.diffusivity import DEFAULT_A, LogPermeabilityField
from ..fem.energy import EnergyLoss
from ..fem.grid import UniformGrid
from ..fem.solver import DirichletBC, FEMSolver, canonical_bc

__all__ = ["PoissonProblem", "PoissonProblem2D", "PoissonProblem3D"]


class PoissonProblem:
    """Generalized Poisson problem ``-div(nu(x; omega) grad u) = f``.

    Parameters
    ----------
    ndim:
        Spatial dimensionality (2 or 3).
    resolution:
        Finest voxel resolution (nodes per dimension).
    a:
        Mode frequencies of the diffusivity family (Eq. 10).
    omega_range:
        Parameter box, paper default [-3, 3]^m.
    """

    def __init__(self, ndim: int, resolution: int,
                 a: tuple[float, ...] = DEFAULT_A,
                 omega_range: tuple[float, float] = (-3.0, 3.0)) -> None:
        if ndim not in (2, 3):
            raise ValueError("ndim must be 2 or 3")
        self.ndim = ndim
        self.resolution = resolution
        self.omega_range = omega_range
        self.field = LogPermeabilityField(ndim, a)
        self._grids: dict[int, UniformGrid] = {}
        self._bcs: dict[int, DirichletBC] = {}
        self._losses: dict[tuple[int, str], EnergyLoss] = {}
        self._masks: dict[tuple[int, type], tuple[np.ndarray, np.ndarray]] = {}

    # ------------------------------------------------------------------ #
    def grid(self, resolution: int | None = None) -> UniformGrid:
        r = resolution or self.resolution
        if r not in self._grids:
            self._grids[r] = UniformGrid(self.ndim, r)
        return self._grids[r]

    def bc(self, resolution: int | None = None) -> DirichletBC:
        r = resolution or self.resolution
        if r not in self._bcs:
            self._bcs[r] = canonical_bc(self.grid(r))
        return self._bcs[r]

    def energy(self, resolution: int | None = None,
               reduction: str = "mean") -> EnergyLoss:
        r = resolution or self.resolution
        key = (r, reduction)
        if key not in self._losses:
            self._losses[key] = EnergyLoss(self.grid(r), reduction=reduction)
        return self._losses[key]

    def masks(self, resolution: int | None = None,
              dtype=np.float32) -> tuple[np.ndarray, np.ndarray]:
        """BC masking arrays for Algorithm 1 line 8, as profiles along x.

        Returns ``(chi_int, u_bc)`` of shape ``(1, 1, R, 1[, 1])``: the
        canonical BC constrains the x = 0 and x = 1 faces alone, so both
        broadcast against a ``(B, 1, *grid.shape)`` field, and neither
        they nor :meth:`bc` is built on the whole grid.  ``u = u_net *
        chi_int + u_bc`` imposes the Dirichlet data exactly.
        """
        r = resolution or self.resolution
        key = (r, np.dtype(dtype).type)
        if key not in self._masks:
            bc = canonical_bc(UniformGrid(1, r))      # the x-axis alone
            shape = (1, 1, r) + (1,) * (self.ndim - 1)
            self._masks[key] = tuple(a.reshape(shape).astype(dtype) for a
                                     in (bc.interior_indicator(), bc.lift()))
        return self._masks[key]

    # ------------------------------------------------------------------ #
    def nu(self, omega: np.ndarray, resolution: int | None = None) -> np.ndarray:
        """Diffusivity field for one ω at the requested resolution."""
        return self.field.evaluate(omega, self.grid(resolution))

    def fem_solve(self, omega: np.ndarray, resolution: int | None = None,
                  method: str = "auto") -> np.ndarray:
        """Reference FEM solution for one ω (ground truth for metrics)."""
        r = resolution or self.resolution
        grid = self.grid(r)
        solver = FEMSolver(grid)
        return solver.solve(self.nu(omega, r), self.bc(r), method=method)

    def make_dataset(self, n_samples: int, skip: int = 1,
                     dtype=np.float32) -> DiffusivityDataset:
        """Sobol-sampled training dataset over this problem's family."""
        return DiffusivityDataset(self.field, n_samples,
                                  omega_range=self.omega_range, skip=skip,
                                  dtype=dtype)

    def __repr__(self) -> str:
        return (f"PoissonProblem({self.ndim}d, resolution={self.resolution}, "
                f"m={self.field.m})")


def PoissonProblem2D(resolution: int, **kwargs) -> PoissonProblem:
    """2D convenience constructor."""
    return PoissonProblem(2, resolution, **kwargs)


def PoissonProblem3D(resolution: int, **kwargs) -> PoissonProblem:
    """3D convenience constructor."""
    return PoissonProblem(3, resolution, **kwargs)
