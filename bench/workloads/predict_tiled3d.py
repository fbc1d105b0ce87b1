"""predict_tiled3d — one megavoxel field by tiled inference (paper Sec. 4.3).

``tiled_predict(model, PoissonProblem3D(128), omega, tile=64)`` with the
serial executor: 2.1 M voxels in 8 halo-padded tiles.  The headline
operation is one stitched 128^3 field; work items are voxels predicted.
The traced pass also runs the plain full-field ``predict_batch`` (the
baseline tiling exists to avoid: ~3x the memory), the streaming path and
the two-thread executor.

Forward-only / ``no_grad`` use of the same convs as the training
workloads, and the only workload where ``serve.tiling`` halo
over-compute, stitching and ``serve.executor`` matter.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro import MGDiffNet, PoissonProblem3D
from repro.autograd import profile
from repro.core.inference import (apply_bc_masks, predict_batch,
                                  prepare_batch_inputs)
from repro.serve.executor import make_executor
from repro.serve.tiling import (plan_tiles, receptive_halo,
                                stream_tiled_predict, tiled_forward,
                                tiled_predict)

from .. import harness
from . import Measured
from .common import (AUTOGRAD_NAMES, BACKEND_NAMES, TRACE_NAMES,
                     autograd_metrics, backend_metrics, rng_for)

RESOLUTION = 128
TILE = 64
TOLERANCE = 1e-5
FINGERPRINT_VOXELS = 64

PER_LAYER = (
    "core.prepare_inputs_s", "core.apply_bc_s", "core.full_field_s",
    "serve.tiling.tiled_over_full", "serve.tiling.plan_s",
    "serve.tiling.tiles", "serve.tiling.halo_overcompute",
    "serve.tiling.tile_compute_s", "serve.tiling.stitch_self_s",
    "serve.tiling.first_tile_s", "serve.tiling.max_abs_err",
    "serve.executor.thread2_ratio",
) + AUTOGRAD_NAMES + BACKEND_NAMES + TRACE_NAMES


@dataclass
class State:
    model: MGDiffNet
    problem: object
    omega: np.ndarray
    verify: bool         # this part pays for the full-field reference
    probe: np.ndarray    # flat voxel indices making up the fingerprint


def make_inputs(seed: int, part: int) -> dict[str, np.ndarray]:
    # Every part predicts the same field (the parent compares their
    # fingerprints); only part 0 checks it against the full forward.
    rng = rng_for(seed, 0, 0)
    return {"omega": rng.uniform(-3.0, 3.0, 4),
            "probe": rng.integers(0, RESOLUTION ** 3, FINGERPRINT_VOXELS),
            "model_seed": np.array([seed], dtype=np.int64),
            "verify": np.array([part == 0])}


def setup(inputs) -> State:
    problem = PoissonProblem3D(RESOLUTION)
    model = MGDiffNet(ndim=3, base_filters=4, depth=2,
                      rng=int(inputs["model_seed"][0]))
    state = State(model=model, problem=problem, omega=inputs["omega"],
                  verify=bool(inputs["verify"][0]), probe=inputs["probe"])
    # Warm-up: the first tile only (every tile has the same padded shape).
    for _ in stream_tiled_predict(model, problem, state.omega, tile=TILE,
                                  tiles=[0]):
        pass
    return state


def teardown(state: State) -> None:
    pass


def _tiled(state: State) -> np.ndarray:
    return tiled_predict(state.model, state.problem, state.omega, tile=TILE)


def measure(state: State, seconds: float) -> Measured:
    fields = []

    def one_field() -> None:
        fields[:] = [_tiled(state)]

    walls = harness.run_for(one_field, seconds)
    field = fields[0]
    return Measured(op_ms=[w * 1e3 for w in walls],
                    items=float(field.size) * len(walls), wall_s=sum(walls),
                    attempted=len(walls),
                    fingerprint=field.ravel()[state.probe].tolist(),
                    keep={"field": field})


def _max_abs_err(state: State, tiled: np.ndarray) -> float:
    full = predict_batch(state.model, state.problem, state.omega)
    return float(np.abs(tiled - full).max())


def check(state: State, measured: Measured) -> list[str]:
    field = measured.keep["field"]
    if not np.all(np.isfinite(field)):
        return ["tiled field is not finite"]
    if state.verify:
        err = _max_abs_err(state, field)
        if not err <= TOLERANCE:
            return [f"max|tiled - full| = {err} > {TOLERANCE}"]
    return []


# --------------------------------------------------------------------- #
# Traced pass
# --------------------------------------------------------------------- #
def _traced_tiled(state: State, rec) -> tuple[np.ndarray, object]:
    """``tiled_predict`` rebuilt from its public pieces, one span per
    layer call; the stitched field must equal the untraced one exactly.
    ``tiled_forward`` reports a ``tile.compute`` span per tile through
    its own ``tracer=`` argument."""
    model, problem = state.model, state.problem
    with rec.span("core.prepare_inputs"):
        log_nu, chi_int, u_bc = prepare_batch_inputs(problem, state.omega)
    with rec.span("serve.tiling.plan"):
        multiple = 2 ** model.net.depth
        plan = plan_tiles(log_nu.shape[2:], TILE, receptive_halo(model),
                          multiple)
    was_training = model.training
    model.eval()
    try:
        with rec.span("serve.tiling.forward") as forward:
            u_net = tiled_forward(model.net, log_nu, plan, out_channels=1,
                                  tracer=rec, trace_parent=forward)
    finally:
        model.train(was_training)
    with rec.span("core.apply_bc"):
        field = apply_bc_masks(u_net, chi_int, u_bc)
    return field, plan


def _halo_overcompute(plan) -> float:
    """Voxels the tiles compute, halos included, over field voxels."""
    computed = 0
    for block in plan.blocks:
        voxels = 1
        for (start, stop), size in zip(block, plan.shape):
            voxels *= min(stop + plan.halo, size) - max(start - plan.halo, 0)
        computed += voxels
    return computed / float(np.prod(plan.shape))


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def trace(state: State, inputs, seconds: float, rec):
    untraced, untraced_s = _timed(lambda: _tiled(state))

    with rec.span("bench.field") as root, profile() as prof:
        traced, plan = _traced_tiled(state, rec)
    traced_s = root.end - root.start

    by_name = harness.self_seconds_by_name(rec.spans)
    metrics = {
        "core.prepare_inputs_s": by_name["core.prepare_inputs"],
        "core.apply_bc_s": by_name["core.apply_bc"],
        "serve.tiling.plan_s": by_name["serve.tiling.plan"],
        "serve.tiling.tile_compute_s": by_name["tile.compute"],
        "serve.tiling.stitch_self_s": by_name["serve.tiling.forward"],
        "serve.tiling.tiles": plan.num_tiles,
        "serve.tiling.halo_overcompute": _halo_overcompute(plan),
    }
    metrics.update(autograd_metrics(prof, by_name["tile.compute"]))
    metrics.update(backend_metrics())
    metrics["trace_overhead_frac"] = traced_s / untraced_s - 1.0
    metrics["trace_unattributed_frac"] = harness.unattributed_frac(rec.spans)

    # Streaming: how long until the first tile core is in hand.
    stream = stream_tiled_predict(state.model, state.problem, state.omega,
                                  tile=TILE)
    _, metrics["serve.tiling.first_tile_s"] = _timed(lambda: next(stream))
    stream.close()

    # Two threads over the same tiles, against the serial field above.
    executor = make_executor("thread", 2)
    try:
        threaded, threaded_s = _timed(lambda: tiled_predict(
            state.model, state.problem, state.omega, tile=TILE,
            executor=executor))
    finally:
        executor.close()
    metrics["serve.executor.thread2_ratio"] = threaded_s / untraced_s

    # The plain baseline: one full-field forward, cold then warm.
    predict_batch(state.model, state.problem, state.omega)
    full, full_s = _timed(lambda: predict_batch(
        state.model, state.problem, state.omega))
    metrics["core.full_field_s"] = full_s
    metrics["serve.tiling.tiled_over_full"] = untraced_s / full_s
    metrics["serve.tiling.max_abs_err"] = float(np.abs(untraced - full).max())

    failures = []
    if not np.array_equal(traced, untraced):
        failures.append("traced tiled field differs from the untraced one")
    if not np.array_equal(threaded, untraced):
        failures.append("thread-executor field differs from the serial one")
    if not metrics["serve.tiling.max_abs_err"] <= TOLERANCE:
        failures.append(f"max|tiled - full| = "
                        f"{metrics['serve.tiling.max_abs_err']} > {TOLERANCE}")
    return metrics, failures
