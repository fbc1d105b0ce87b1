"""Host-side measurements feeding the performance model.

``measure_epoch_time`` produces the Fig. 2 series (epoch time vs degrees
of freedom); ``measure_sample_time`` calibrates the per-sample
forward+backward+step cost used to extrapolate Figs. 9-10.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..core.mgdiffnet import MGDiffNet
from ..core.problem import PoissonProblem
from ..core.trainer import backward_pass
from ..optim import Adam

__all__ = ["EpochTimePoint", "measure_epoch_time", "measure_sample_time"]


@dataclass(frozen=True)
class EpochTimePoint:
    """One Fig. 2 measurement."""

    resolution: int
    dofs: int
    epoch_seconds: float


def _training_step(model: MGDiffNet, problem: PoissonProblem, optimizer,
                   x: np.ndarray, nu: np.ndarray, resolution: int) -> float:
    optimizer.zero_grad()
    loss = backward_pass(model, x, nu, problem.masks(resolution, dtype=x.dtype),
                         problem.energy(resolution, reduction="mean"))
    optimizer.step()
    return loss


def measure_sample_time(model: MGDiffNet, problem: PoissonProblem,
                        resolution: int, batch_size: int = 2,
                        repeats: int = 3, warmup: int = 1,
                        seed: int = 0) -> float:
    """Seconds of forward+backward+step work *per sample* at a resolution."""
    ds = problem.make_dataset(batch_size, skip=1 + seed)
    x = ds.inputs_at(resolution)
    nu = ds.nu_at(resolution)
    optimizer = Adam(model.parameters(), lr=1e-6)
    for _ in range(warmup):
        _training_step(model, problem, optimizer, x, nu, resolution)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        _training_step(model, problem, optimizer, x, nu, resolution)
        best = min(best, time.perf_counter() - t0)
    return best / batch_size


def measure_epoch_time(model: MGDiffNet, problem: PoissonProblem,
                       resolution: int, n_samples: int = 8,
                       batch_size: int = 4, seed: int = 0) -> EpochTimePoint:
    """Time one full epoch at a resolution (the Fig. 2 quantity)."""
    ds = problem.make_dataset(n_samples, skip=1 + seed)
    x = ds.inputs_at(resolution)
    nu = ds.nu_at(resolution)
    optimizer = Adam(model.parameters(), lr=1e-6)
    # Warm-up one batch (kernel caches, allocator).
    _training_step(model, problem, optimizer, x[:batch_size], nu[:batch_size],
                   resolution)
    t0 = time.perf_counter()
    for b0 in range(0, n_samples, batch_size):
        _training_step(model, problem, optimizer,
                       x[b0:b0 + batch_size], nu[b0:b0 + batch_size],
                       resolution)
    dt = time.perf_counter() - t0
    return EpochTimePoint(resolution=resolution,
                          dofs=resolution ** problem.ndim,
                          epoch_seconds=dt)
