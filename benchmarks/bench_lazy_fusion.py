"""Lazy backend fusion vs eager NumPy: the temporaries tax, measured.

Eager NumPy executes ``x + omega * inv_d * r * interior`` as four
full-size temporaries streamed through memory; the lazy backend fuses
the chain into one cluster and interprets it through scratch buffers it
recycles.  This bench times the damped-Jacobi update — the GMG
smoother's hot chain — and a fused reduction at megavoxel-adjacent
sizes, and gates the interpreter at no worse than 1.2x slower than
eager: laziness has to pay for itself or get out of the way.

``--json BENCH_lazy_fusion.json`` is uploaded by CI's lazy-smoke job.
"""

from __future__ import annotations

import sys
import time

import numpy as np

try:
    from .common import bench_cli, report, write_bench_json
except ImportError:  # pragma: no cover - script mode
    from common import bench_cli, report, write_bench_json

SIZE = 1 << 21          # 16 MiB float64 operands: well past cache
SWEEPS = 8              # chain executions per timed round
REPEATS = 5             # best-of
INTERP_SLOWDOWN_GATE = 1.2


def _operands(size: int):
    rng = np.random.default_rng(0)
    return (rng.standard_normal(size),                       # x
            rng.standard_normal(size),                       # r
            rng.uniform(1.0, 2.0, size),                     # diag
            (np.arange(size) % 5 != 0).astype(np.float64))   # interior


def _eager_smoother(x, r, diag, interior, sweeps):
    omega = 2.0 / 3.0
    for _ in range(sweeps):
        inv_d = np.where(diag != 0, 1.0 / diag, 0.0)
        x = x + omega * inv_d * r * interior
    return x


def _lazy_smoother(x, r, diag, interior, sweeps):
    from repro.backend import ops as B, realize

    omega = 2.0 / 3.0
    x = B.asarray(x)
    r, diag = B.asarray(r), B.asarray(diag)
    interior = B.asarray(interior)
    for _ in range(sweeps):
        inv_d = B.where(diag != 0, 1.0 / diag, 0.0)
        # realize per sweep: one fused kernel per iteration, matching
        # the eager path's per-sweep materialization.
        x = realize(x + omega * inv_d * r * interior)
    return np.asarray(x)


def _eager_reduce(x, r, sweeps):
    total = 0.0
    for _ in range(sweeps):
        total += float(np.exp(-np.abs(x * r)).sum())
    return total


def _lazy_reduce(x, r, sweeps):
    from repro.backend import ops as B

    xl, rl = B.asarray(x), B.asarray(r)
    total = 0.0
    for _ in range(sweeps):
        total += float(B.exp(-B.abs(xl * rl)).sum())
    return total


def _lazy_mode(workload):
    """Run ``workload`` under the lazy backend."""
    from repro.backend import use_backend

    with use_backend("lazy"):
        return workload()


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _time_modes(modes: dict, repeats: int = REPEATS) -> dict[str, float]:
    """Best-of-N per mode with the modes *interleaved* round-robin.

    Shared CI boxes drift: timing mode A's rounds back-to-back and then
    mode B's measures the machine as much as the code.  Interleaving
    puts every mode through the same weather; best-of still rejects the
    stragglers.
    """
    best = {name: float("inf") for name in modes}
    for _ in range(repeats):
        for name, fn in modes.items():
            best[name] = min(best[name], _timed(fn))
    return best


def _run(size: int = SIZE, sweeps: int = SWEEPS) -> dict:
    from repro.backend import lazy_stats, reset_lazy_stats

    x, r, diag, interior = _operands(size)
    workloads = {
        "smoother": (lambda: _eager_smoother(x, r, diag, interior, sweeps),
                     lambda: _lazy_smoother(x, r, diag, interior, sweeps)),
        "reduce": (lambda: _eager_reduce(x, r, sweeps),
                   lambda: _lazy_reduce(x, r, sweeps)),
    }
    result: dict = {"size": size, "sweeps": sweeps, "rows": []}
    for name, (eager_fn, lazy_fn) in workloads.items():
        # Equivalence first: the speed is worthless if the answer moved.
        eager_val = np.asarray(eager_fn())
        np.testing.assert_allclose(
            np.asarray(_lazy_mode(lazy_fn)), eager_val, atol=1e-9, rtol=1e-9)
        modes = {"eager": eager_fn, "interp": lambda: _lazy_mode(lazy_fn)}
        reset_lazy_stats()
        best = _time_modes(modes)
        stats = lazy_stats()
        row = {"workload": name, "eager_s": best["eager"],
               "interp_s": best["interp"],
               "interp_ratio": best["interp"] / best["eager"],
               "fused_ops": stats["fused_ops"],
               "clusters": stats["clusters"]}
        result["rows"].append(row)
    return result


def _report(result: dict) -> None:
    rows = []
    for row in result["rows"]:
        rows.append([row["workload"], f"{row['eager_s'] * 1e3:.1f}",
                     f"{row['interp_s'] * 1e3:.1f}",
                     f"{row['interp_ratio']:.2f}x",
                     row["clusters"], row["fused_ops"]])
    report("lazy_fusion",
           ["workload", "eager_ms", "interp_ms", "interp_vs_eager",
            "clusters", "fused_ops"], rows)


def _gate(result: dict) -> tuple[int, str]:
    """Exit status and the gate string recorded in the JSON artifact."""
    status = 0
    for row in result["rows"]:
        if row["interp_ratio"] > INTERP_SLOWDOWN_GATE:
            print(f"FAIL: {row['workload']} interpreter "
                  f"{row['interp_ratio']:.2f}x slower than eager "
                  f"(> {INTERP_SLOWDOWN_GATE}x)")
            status = 1
    return status, "pass" if status == 0 else "fail"


if __name__ == "__main__":
    def extra(p):
        p.add_argument("--size", type=int, default=SIZE)
        p.add_argument("--sweeps", type=int, default=SWEEPS)
        p.add_argument("--json", default=None, metavar="PATH",
                       help="also write a JSON artifact (used by CI)")

    args = bench_cli("bench_lazy_fusion", extra_args=extra)
    result = _run(args.size, args.sweeps)
    _report(result)
    status, gate = _gate(result)
    if args.json:
        write_bench_json(args.json, "lazy_fusion", result, gate=gate)
        print(f"wrote {args.json}")
    sys.exit(status)
