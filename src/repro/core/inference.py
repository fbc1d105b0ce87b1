"""Inference helpers and the FEM-vs-network timing comparison (Sec. 4.3)."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..autograd import Tensor, no_grad
from ..fem.solver import FEMSolver
from .mgdiffnet import MGDiffNet
from .problem import PoissonProblem

__all__ = ["InferenceTiming", "time_inference_vs_fem", "predict_batch",
           "prepare_batch_inputs", "apply_bc_masks"]


@dataclass(frozen=True)
class InferenceTiming:
    """Timing of one network forward pass vs one FEM solve."""

    resolution: int
    inference_seconds: float
    fem_seconds: float

    @property
    def speedup(self) -> float:
        return self.fem_seconds / max(self.inference_seconds, 1e-12)


def prepare_batch_inputs(problem: PoissonProblem, omegas: np.ndarray,
                         resolution: int | None = None
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Network input batch and BC masks for full-field inference.

    The single source of the inference input transform — shared by the
    one-shot path below and the tiled megavoxel path in
    :mod:`repro.serve.tiling`, so the two can never diverge.  Returns
    ``(log_nu, chi_int, u_bc)`` with ``log_nu`` of shape (B, 1, *grid).
    """
    r = resolution or problem.resolution
    grid = problem.grid(r)
    omegas = np.atleast_2d(np.asarray(omegas, dtype=np.float64))
    log_nu = problem.field.log_nu(omegas, grid)[:, None].astype(np.float32)
    chi_int, u_bc = problem.masks(r)
    return log_nu, chi_int, u_bc


def apply_bc_masks(u_net: np.ndarray, chi_int: np.ndarray,
                   u_bc: np.ndarray) -> np.ndarray:
    """Dirichlet masking epilogue (Algorithm 1 line 8), NumPy flavour.

    Mirrors the Tensor expression inside :meth:`MGDiffNet.forward`; used
    by inference paths that run the bare network (e.g. per tile) and
    impose the boundary data afterwards.  Returns shape (B, *grid).
    """
    u = u_net * chi_int.astype(u_net.dtype) + u_bc.astype(u_net.dtype)
    return u[:, 0].copy()


def predict_batch(model: MGDiffNet, problem: PoissonProblem,
                  omegas: np.ndarray,
                  resolution: int | None = None) -> np.ndarray:
    """Full-field predictions for a batch of ω, shape (B, *grid.shape)."""
    log_nu, chi_int, u_bc = prepare_batch_inputs(problem, omegas, resolution)
    with model.evaluating(), no_grad():
        u = model(Tensor(log_nu), chi_int, u_bc)
    # .numpy() is the serve-boundary realize barrier for the lazy backend.
    return u.numpy()[:, 0].copy()


def time_inference_vs_fem(model: MGDiffNet, problem: PoissonProblem,
                          omega: np.ndarray, resolution: int | None = None,
                          fem_method: str = "auto",
                          repeats: int = 3) -> InferenceTiming:
    """Measure one forward pass vs one FEM solve at the same resolution.

    The paper reports ~5 min FEM vs < 30 s inference at 128^3; at our
    downscaled sizes the *ratio* is the reproduced quantity.
    """
    r = resolution or problem.resolution

    # Warm-up then best-of-N for the forward pass.
    model.predict(problem, omega, r)
    t_inf = min(_timed(lambda: model.predict(problem, omega, r))
                for _ in range(repeats))

    solver = FEMSolver(problem.grid(r))
    nu = problem.nu(omega, r)
    bc = problem.bc(r)
    t_fem = min(_timed(lambda: solver.solve(nu, bc, method=fem_method))
                for _ in range(repeats))
    return InferenceTiming(resolution=r, inference_seconds=t_inf,
                           fem_seconds=t_fem)


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0
