"""The parametric log-permeability diffusivity family of Eq. 10.

    nu(x; omega) = exp( sum_{i=1}^{m} omega_i * lambda_i * xi_i(x) * eta_i(y) [* zeta_i(z)] )

with a = (1.72, 4.05, 6.85, 9.82), lambda_i = 1 / (1 + 0.25 a_i^2) and
xi_i(t) = (a_i / 2) cos(a_i t) + sin(a_i t) (same form for eta and zeta).

The paper states the 2D form; for 3D inputs we use the natural
tensor-product extension with a third factor zeta_i(z) of the same
functional form (documented as a substitution in DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from ..fem.grid import UniformGrid

__all__ = ["LogPermeabilityField", "DEFAULT_A"]

DEFAULT_A = (1.72, 4.05, 6.85, 9.82)


@dataclass(frozen=True)
class LogPermeabilityField:
    """Evaluator for the Eq. 10 diffusivity family.

    Parameters
    ----------
    ndim:
        Spatial dimensionality (2 or 3).
    a:
        Frequency parameters a_i; ``m = len(a)`` modes.
    """

    ndim: int
    a: tuple[float, ...] = DEFAULT_A

    def __post_init__(self) -> None:
        if self.ndim not in (1, 2, 3):
            raise ValueError("ndim must be 1, 2 or 3")
        if len(self.a) < 1:
            raise ValueError("need at least one mode")

    @property
    def m(self) -> int:
        return len(self.a)

    @cached_property
    def lambdas(self) -> np.ndarray:
        a = np.asarray(self.a, dtype=np.float64)
        lambdas = 1.0 / (1.0 + 0.25 * a * a)
        lambdas.flags.writeable = False
        return lambdas

    # ------------------------------------------------------------------ #
    @lru_cache(maxsize=16)
    def _modes(self, grid: UniformGrid) -> np.ndarray:
        """xi_i(t) for all modes on ``grid``'s axis: (m, R), read-only."""
        a = np.asarray(self.a, dtype=np.float64)[:, None]
        t = grid.axes[0][None, :]
        mode = (a / 2.0) * np.cos(a * t) + np.sin(a * t)
        mode.flags.writeable = False
        return mode

    def log_nu(self, omega: np.ndarray, grid: UniformGrid, box=None,
               dtype=np.float64) -> np.ndarray:
        """Log-diffusivity field(s) on ``grid``, or on its ``box`` alone:
        per-axis ``(start, stop)`` node ranges, ``None`` the whole grid.

        ``omega``: (m,) for a single field or (B, m) for a batch; returns
        the box's shape or ``(B, *shape)``, summed in float64 and stored
        as ``dtype``.  Each node is the same ordered sum over the modes,
        ``sum_i (c_i X_i) (Y_i Z_i)``, whatever the box: a box is bitwise
        the whole field's slice (a GEMM is not).
        """
        if grid.ndim != self.ndim:
            raise ValueError(f"grid ndim {grid.ndim} != field ndim {self.ndim}")
        omega = np.asarray(omega, dtype=np.float64)
        single = omega.ndim == 1
        omegas = omega[None] if single else omega
        if omegas.shape[1] != self.m:
            raise ValueError(f"omega has {omegas.shape[1]} modes, expected {self.m}")

        # Rank-m separable: per mode, (B*X) rows times a (Y*Z) plane.
        box = box or [(0, r) for r in grid.shape]
        xs, *rest = [self._modes(grid)[:, a:b] for a, b in box]
        plane = rest[0] if rest else np.ones((self.m, 1))
        for zs in rest[1:]:
            plane = (plane[:, :, None] * zs[:, None, :]).reshape(self.m, -1)
        left = ((omegas * self.lambdas).T[:, :, None] * xs[:, None, :]
                ).reshape(self.m, -1, 1)                        # (m, B*X, 1)
        out = np.empty((left.shape[1], plane.shape[1]), dtype)
        rows = max(1, (1 << 14) // plane.shape[1])    # ~16 K nodes, in cache
        terms = np.empty((self.m, min(rows, len(out)), plane.shape[1]))
        for r in range(0, len(out), rows):
            acc, *more = np.multiply(left[:, r:r + rows], plane[:, None],
                                     out=terms[:, :len(out[r:r + rows])])
            for term in more:
                acc += term
            out[r:r + rows] = acc
        out = out.reshape((len(omegas),) + tuple(b - a for a, b in box))
        return out[0] if single else out

    def evaluate(self, omega: np.ndarray, grid: UniformGrid) -> np.ndarray:
        """Diffusivity field(s) nu = exp(log_nu)."""
        return np.exp(self.log_nu(omega, grid))

    def evaluate_batch(self, omegas: np.ndarray, grid: UniformGrid,
                       dtype=np.float32, log: bool = False) -> np.ndarray:
        """Batched network-layout fields: ``(B, 1, *grid.shape)``.

        ``log=True`` returns the log-field (the smooth KL-expansion sum),
        the network's input.
        """
        if log:
            return self.log_nu(omegas, grid, dtype=dtype)[:, None]
        return np.exp(self.log_nu(omegas, grid))[:, None].astype(dtype)
