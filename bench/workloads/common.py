"""Pieces more than one workload needs from ``repro``."""

from __future__ import annotations

import numpy as np

from repro.backend import get_pool, plan_cache_info
from repro.data.dataset import DiffusivityDataset

# Ops reported one by one from ``repro.autograd.profile()``; together they
# are ~99 % of op time in every workload that runs the network.
OPS = ("ConvNd", "ConvTransposeNd", "BatchNorm", "Mul", "LeakyReLU", "Sum")

AUTOGRAD_NAMES = tuple(
    f"autograd.op.{op}.{field}" for op in OPS
    for field in ("fwd_s", "bwd_s", "calls")) + ("autograd.unattributed_frac",)

BACKEND_NAMES = ("backend.pool.hit_rate", "backend.pool.bytes_recycled",
                 "backend.pool.high_water_bytes", "backend.conv_plan.misses",
                 "backend.conv_plan.size")

TRACE_NAMES = ("trace_overhead_frac", "trace_unattributed_frac")


def rng_for(seed: int, part: int, stream: int) -> np.random.Generator:
    """One independent generator per (seed, worker part, input stream)."""
    return np.random.default_rng([int(seed), int(part), int(stream)])


def seeded_dataset(problem, omegas: np.ndarray) -> DiffusivityDataset:
    """The training set for the generated parameter vectors (what
    ``problem.make_dataset`` builds, minus its fixed Sobol draw)."""
    return DiffusivityDataset(problem.field, 0, omegas=omegas)


def materialize(dataset, resolutions) -> None:
    """Cold ``inputs_at`` / ``nu_at`` at every resolution a run trains on."""
    for r in resolutions:
        dataset.inputs_at(r)
        dataset.nu_at(r)


def autograd_metrics(prof, network_seconds: float,
                     operations: int = 1) -> dict[str, float]:
    """Per-op forward/backward seconds and calls from a profile taken
    over ``operations`` headline operations (reported per operation),
    plus the share of ``network_seconds`` (time inside forward, loss and
    backward spans) that no profiled op accounts for."""
    out: dict[str, float] = {}
    for op in OPS:
        fwd, bwd = prof.forward.get(op), prof.backward.get(op)
        out[f"autograd.op.{op}.fwd_s"] = (fwd.seconds if fwd else 0.0) / operations
        out[f"autograd.op.{op}.bwd_s"] = (bwd.seconds if bwd else 0.0) / operations
        out[f"autograd.op.{op}.calls"] = (fwd.calls if fwd else 0) / operations
    out["autograd.unattributed_frac"] = (
        max(0.0, 1.0 - prof.total_seconds() / network_seconds)
        if network_seconds > 0 else 0.0)
    return out


def backend_metrics() -> dict[str, float]:
    """Buffer-pool and conv-plan counters of this process so far."""
    pool, plans = get_pool().stats, plan_cache_info()
    return {
        "backend.pool.hit_rate": pool.hit_rate,
        "backend.pool.bytes_recycled": pool.bytes_recycled,
        "backend.pool.high_water_bytes": pool.high_water_bytes,
        "backend.conv_plan.misses": plans["misses"],
        "backend.conv_plan.size": plans["size"],
    }


def finite_and_decreasing(losses, what: str) -> list[str]:
    """The training check: every loss finite, the last below the first."""
    losses = [float(x) for x in losses]
    if not losses or not all(np.isfinite(losses)):
        return [f"{what}: non-finite loss"]
    if len(losses) > 1 and not losses[-1] < losses[0]:
        return [f"{what}: loss did not fall ({losses[0]} -> {losses[-1]})"]
    return []
