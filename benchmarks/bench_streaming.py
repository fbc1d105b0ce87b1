"""STREAMING TILED INFERENCE — first-byte latency vs full-field wall.

One ω predicted on a 64^3 grid both ways:
:func:`~repro.serve.tiled_predict` (the full stitched field in one
return) and :func:`~repro.serve.stream_tiled_predict` (tile cores
yielded as the pool completes them).  Measured: wall time of the full
field, time to the *first* streamed record, time to the last, and the
max |Δ| between the progressively assembled field and the one-shot
result.  The streaming win is the first-byte gap: a renderer or outer
solver loop starts consuming while 7/8 of the volume is still
computing.

Gates (exit nonzero on failure):

* **equality** — streamed assembly matches ``tiled_predict`` within
  1e-5 (it is bitwise-equal by construction; the gate allows backend
  drift), always;
* **first byte** — time-to-first-tile strictly below the full-field
  wall at 64^3, always.

``--json BENCH_streaming.json`` is uploaded by CI's streaming-smoke job
and appended to ``benchmarks/results/trajectory.jsonl``.
"""

from __future__ import annotations

import sys
import time

import numpy as np

from repro import MGDiffNet, PoissonProblem3D
from repro.serve import (
    make_executor, receptive_halo, stream_tiled_predict, tiled_predict,
)
from repro.serve.executor import default_workers

try:
    from .common import bench_cli, report, write_bench_json
except ImportError:  # pragma: no cover - script mode
    from common import bench_cli, report, write_bench_json

BASE_FILTERS = 4
DEPTH = 1

# First-byte experiment: 64^3 (the ISSUE floor), 2x2x2 tiles of 32^3
# core under the engine's own halo (the emitting sweep's 2 cells; the
# whole-network engine this bench was first recorded on needed 8).
RESOLUTION = 64
TILE = 32


def _build():
    model = MGDiffNet(ndim=3, base_filters=BASE_FILTERS, depth=DEPTH,
                      rng=42)
    problem = PoissonProblem3D(16)
    omega = np.array([0.3105, 1.5386, 0.0932, -1.2442])
    return model, problem, omega


def _measure_first_byte(resolution: int, executor_kind: str) -> dict:
    """Full-field wall vs streamed first/last record on one executor."""
    model, problem, omega = _build()
    executor = make_executor(executor_kind, None)
    try:
        # Warm plans/pools so neither path pays one-time setup.
        tiled_predict(model, problem, omega, resolution=resolution,
                      tile=TILE, executor=executor)
        t0 = time.perf_counter()
        full = tiled_predict(model, problem, omega, resolution=resolution,
                             tile=TILE, executor=executor)
        full_s = time.perf_counter() - t0

        out = np.empty_like(full)
        first_s = None
        n_tiles = 0
        t0 = time.perf_counter()
        for _, sl, core in stream_tiled_predict(
                model, problem, omega, resolution=resolution,
                tile=TILE, executor=executor):
            if first_s is None:
                first_s = time.perf_counter() - t0
            out[(slice(None),) + sl] = core
            n_tiles += 1
        stream_s = time.perf_counter() - t0
    finally:
        executor.close()
    return {"executor": executor_kind, "resolution": resolution,
            "tiles": n_tiles, "full_field_s": full_s,
            "first_tile_s": first_s, "stream_s": stream_s,
            "speedup_first_byte": full_s / first_s,
            "max_abs_diff": float(np.max(np.abs(out - full)))}


def _run(resolution: int = RESOLUTION) -> dict:
    executor_kind = "thread" if default_workers() >= 2 else "serial"
    return {"base_filters": BASE_FILTERS, "depth": DEPTH,
            "tile": TILE, "halo": receptive_halo(_build()[0]),
            "cpus": default_workers(),
            "first_byte": _measure_first_byte(resolution, executor_kind)}


def _report(result: dict) -> None:
    fb = result["first_byte"]
    report("streaming: first-byte latency",
           ["executor", "resolution", "tiles", "first_tile_ms",
            "full_field_ms", "speedup", "max_abs_diff"],
           [[fb["executor"], fb["resolution"], fb["tiles"],
             round(fb["first_tile_s"] * 1e3, 1),
             round(fb["full_field_s"] * 1e3, 1),
             f"{fb['speedup_first_byte']:.1f}x",
             f"{fb['max_abs_diff']:.1e}"]])


def _gate(result: dict) -> int:
    status = 0
    fb = result["first_byte"]
    if fb["max_abs_diff"] > 1e-5:
        print(f"FAIL: streamed assembly diverges from tiled_predict by "
              f"{fb['max_abs_diff']:.2e} > 1e-5")
        status = 1
    if not fb["first_tile_s"] < fb["full_field_s"]:
        print(f"FAIL: first streamed tile "
              f"({fb['first_tile_s'] * 1e3:.1f} ms) not strictly below "
              f"the full-field wall ({fb['full_field_s'] * 1e3:.1f} ms)")
        status = 1
    if status == 0:
        print(f"streaming gates ok: first byte "
              f"{fb['first_tile_s'] * 1e3:.1f} ms < full field "
              f"{fb['full_field_s'] * 1e3:.1f} ms "
              f"({fb['speedup_first_byte']:.1f}x), assembly exact")
    return status


def test_streaming_bench(benchmark):
    # Downscaled for wall time: the structural gates (exact assembly,
    # first byte strictly earlier) are size-independent; the 64^3
    # measurement runs in __main__ (CI job).
    result = benchmark.pedantic(lambda: _run(resolution=32),
                                rounds=1, iterations=1)
    _report(result)
    fb = result["first_byte"]
    assert fb["max_abs_diff"] <= 1e-5
    assert fb["first_tile_s"] < fb["full_field_s"]


if __name__ == "__main__":
    def extra(p):
        p.add_argument("--resolution", type=int, default=RESOLUTION)
        p.add_argument("--json", default=None, metavar="PATH",
                       help="also write a JSON artifact (used by CI)")

    args = bench_cli("bench_streaming", extra_args=extra)
    result = _run(args.resolution)
    _report(result)
    status = _gate(result)
    if args.json:
        write_bench_json(args.json, "streaming", result,
                         gate="pass" if status == 0 else "fail")
        print(f"wrote {args.json}")
    sys.exit(status)
