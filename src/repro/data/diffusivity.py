"""The parametric log-permeability diffusivity family of Eq. 10.

    nu(x; omega) = exp( sum_{i=1}^{m} omega_i * lambda_i * xi_i(x) * eta_i(y) [* zeta_i(z)] )

with a = (1.72, 4.05, 6.85, 9.82), lambda_i = 1 / (1 + 0.25 a_i^2) and
xi_i(t) = (a_i / 2) cos(a_i t) + sin(a_i t) (same form for eta and zeta).

The paper states the 2D form; for 3D inputs we use the natural
tensor-product extension with a third factor zeta_i(z) of the same
functional form (documented as a substitution in DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

    @property
    def lambdas(self) -> np.ndarray:
        a = np.asarray(self.a, dtype=np.float64)
        return 1.0 / (1.0 + 0.25 * a * a)

    # ------------------------------------------------------------------ #
    def _mode_1d(self, t: np.ndarray) -> np.ndarray:
        """xi_i(t) for all modes: shape (m, len(t))."""
        a = np.asarray(self.a, dtype=np.float64)[:, None]
        t = np.asarray(t, dtype=np.float64)[None, :]
        return (a / 2.0) * np.cos(a * t) + np.sin(a * t)

    def log_nu(self, omega: np.ndarray, grid: UniformGrid) -> np.ndarray:
        """Log-diffusivity field(s) on ``grid``.

        ``omega``: (m,) for a single field or (B, m) for a batch.
        Returns ``grid.shape`` or ``(B, *grid.shape)``.
        """
        if grid.ndim != self.ndim:
            raise ValueError(f"grid ndim {grid.ndim} != field ndim {self.ndim}")
        omega = np.asarray(omega, dtype=np.float64)
        single = omega.ndim == 1
        omegas = omega[None] if single else omega
        if omegas.shape[1] != self.m:
            raise ValueError(f"omega has {omegas.shape[1]} modes, expected {self.m}")

        # The field is rank-m separable, sum_m c_bm X_mi (Y_mj Z_mk): one
        # (B*R, m) x (m, R**(ndim-1)) GEMM, never the (m, R**ndim) basis.
        mode = self._mode_1d(grid.axes[0])                      # (m, R)
        rest = np.ones((self.m, 1))
        for _ in range(self.ndim - 1):
            rest = (rest[:, :, None] * mode[:, None, :]).reshape(self.m, -1)
        left = (omegas * self.lambdas)[:, None, :] * mode.T     # (B, R, m)
        out = (left.reshape(-1, self.m) @ rest).reshape(
            len(omegas), *grid.shape)
        return out[0] if single else out

    def evaluate(self, omega: np.ndarray, grid: UniformGrid) -> np.ndarray:
        """Diffusivity field(s) nu = exp(log_nu)."""
        return np.exp(self.log_nu(omega, grid))

    def evaluate_batch(self, omegas: np.ndarray, grid: UniformGrid,
                       dtype=np.float32, log: bool = False) -> np.ndarray:
        """Batched network-layout fields: ``(B, 1, *grid.shape)``.

        ``log=True`` returns the log-field (the smooth KL-expansion sum),
        which is the default network input transform.
        """
        fields = self.log_nu(omegas, grid)
        if not log:
            fields = np.exp(fields)
        return fields[:, None].astype(dtype)
