"""Held-out validation of trained solvers.

Tracks what the paper's tables actually report: the energy loss on unseen
parameter vectors and the agreement with the traditional FEM solver —
the generalization evidence for a *parametric* PDE surrogate (the paper's
limitation 2 of pointwise PINNs).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..autograd import Tensor, no_grad
from ..data.sobol import sample_omega
from .metrics import FieldErrors, compare_fields
from .mgdiffnet import MGDiffNet
from .problem import PoissonProblem

__all__ = ["ValidationResult", "Validator"]


@dataclass
class ValidationResult:
    """Aggregate validation metrics over held-out omegas."""

    resolution: int
    n_samples: int
    mean_energy: float
    mean_rel_l2: float
    max_rel_l2: float
    mean_linf: float

    def __str__(self) -> str:
        return (f"val[{self.n_samples}@{self.resolution}]: "
                f"energy={self.mean_energy:.5f} "
                f"relL2={self.mean_rel_l2:.4f} (max {self.max_rel_l2:.4f}) "
                f"Linf={self.mean_linf:.4f}")


class Validator:
    """Evaluates a model on held-out Sobol samples with FEM references.

    The omegas are drawn from a *disjoint* stretch of the Sobol sequence
    (skipping past the training range), and FEM references are solved
    once and cached.
    """

    def __init__(self, problem: PoissonProblem, n_samples: int = 8,
                 resolution: int | None = None, skip: int = 100_000) -> None:
        self.problem = problem
        self.resolution = resolution or problem.resolution
        self.omegas = sample_omega(n_samples, m=problem.field.m,
                                   omega_range=problem.omega_range,
                                   skip=skip)
        self._references: list[np.ndarray] | None = None

    @property
    def references(self) -> list[np.ndarray]:
        if self._references is None:
            self._references = [
                self.problem.fem_solve(omega, self.resolution)
                for omega in self.omegas]
        return self._references

    # ------------------------------------------------------------------ #
    def evaluate(self, model: MGDiffNet) -> ValidationResult:
        r = self.resolution
        grid = self.problem.grid(r)
        energy = self.problem.energy(r, reduction="mean")
        chi_int, u_bc = self.problem.masks(r)

        log_nu = self.problem.field.log_nu(self.omegas, grid)
        nu = np.exp(log_nu)[:, None].astype(np.float32)
        x = Tensor(log_nu[:, None].astype(np.float32))

        with model.evaluating(), no_grad():
            u = model(x, chi_int, u_bc)
            j = float(energy(u, nu).data)

        errors: list[FieldErrors] = [
            compare_fields(u.data[i, 0], ref)
            for i, ref in enumerate(self.references)]
        return ValidationResult(
            resolution=r,
            n_samples=len(self.omegas),
            mean_energy=j,
            mean_rel_l2=float(np.mean([e.rel_l2 for e in errors])),
            max_rel_l2=float(np.max([e.rel_l2 for e in errors])),
            mean_linf=float(np.mean([e.linf for e in errors])),
        )
