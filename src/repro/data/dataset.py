"""Datasets of parametric diffusivity fields.

A dataset owns the Sobol-sampled parameter vectors ω and materializes the
input fields at any requested resolution — this is what feeds the same
network at the different multigrid levels (Fig. 1 of the paper).
"""

from __future__ import annotations

import numpy as np

from ..fem.grid import UniformGrid
from .diffusivity import LogPermeabilityField
from .sobol import sample_omega

__all__ = ["DiffusivityDataset"]


class DiffusivityDataset:
    """Sobol-sampled diffusivity fields for a parametric Poisson problem.

    Parameters
    ----------
    field:
        The Eq. 10 evaluator (or anything with ``evaluate_batch``).
    n_samples:
        Number of ω samples.
    omega_range:
        Box for ω (paper: [-3, 3]^4).
    input_transform:
        'log' feeds the network the KL-expansion log-field (well
        conditioned); 'identity' feeds raw ν.  The energy loss always
        receives raw ν regardless.
    """

    def __init__(self, field: LogPermeabilityField, n_samples: int,
                 omega_range: tuple[float, float] = (-3.0, 3.0),
                 skip: int = 1, dtype=np.float32,
                 input_transform: str = "log",
                 omegas: np.ndarray | None = None) -> None:
        if input_transform not in ("log", "identity"):
            raise ValueError(f"unknown input transform {input_transform!r}")
        self.field = field
        self.dtype = dtype
        self.input_transform = input_transform
        if omegas is not None:
            omegas = np.asarray(omegas, dtype=np.float64)
            if omegas.ndim != 2 or omegas.shape[1] != field.m:
                raise ValueError(f"omegas must be (N, {field.m})")
            self.omegas = omegas
        else:
            self.omegas = sample_omega(n_samples, m=field.m,
                                       omega_range=omega_range, skip=skip)
        self._cache: dict[tuple[int, str], np.ndarray] = {}

    def __len__(self) -> int:
        return self.omegas.shape[0]

    @property
    def ndim(self) -> int:
        return self.field.ndim

    # ------------------------------------------------------------------ #
    def inputs_at(self, resolution: int) -> np.ndarray:
        """Network inputs ``(N, 1, *R)`` at the given resolution (cached)."""
        key = (resolution, "in")
        if key not in self._cache:
            grid = UniformGrid(self.ndim, resolution)
            self._cache[key] = self.field.evaluate_batch(
                self.omegas, grid, dtype=self.dtype,
                log=self.input_transform == "log")
        return self._cache[key]

    def nu_at(self, resolution: int) -> np.ndarray:
        """Raw diffusivity fields ``(N, 1, *R)`` for the energy loss (cached)."""
        key = (resolution, "nu")
        if key not in self._cache:
            grid = UniformGrid(self.ndim, resolution)
            self._cache[key] = self.field.evaluate_batch(
                self.omegas, grid, dtype=self.dtype, log=False)
        return self._cache[key]

    # ------------------------------------------------------------------ #
    def padded_to_multiple(self, multiple: int) -> "DiffusivityDataset":
        """Dataset augmented so ``len`` is divisible by ``multiple``.

        Implements the paper's augmentation step: 'we start by augmenting
        the dataset to make the total number of training samples Ns
        divisible by the number of workers p' (Sec. 3.2) — samples are
        repeated cyclically from the beginning.
        """
        n = len(self)
        if n % multiple == 0:
            return self
        extra = multiple - (n % multiple)
        omegas = np.concatenate([self.omegas, self.omegas[:extra]], axis=0)
        return DiffusivityDataset(self.field, 0, dtype=self.dtype,
                                  input_transform=self.input_transform,
                                  omegas=omegas)
