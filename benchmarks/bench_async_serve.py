"""PRIORITY LANES — high vs low priority tail latency under mixed load.

The scheduling claim: under a saturated mixed-priority load,
high-priority requests jump the queue, so their tail latency stays a
small multiple of one batch time while bulk traffic absorbs the
queueing delay.  The load is a thread client holding ``submit``
futures — the one request path — and each request's latency runs from
its ``submit`` to its future resolving.  A plain run without
priorities on the same workload records the server's QPS (``sync``).

Gated: the benchmark exits nonzero if the high-priority p99 is not
strictly below the low-priority p99.  ``--json`` writes
``BENCH_async_serve.json`` for CI (uploaded by the scheduling smoke
job, which compares ``result.sync.qps``).
"""

from __future__ import annotations

import sys
import time

import numpy as np

from repro import MGDiffNet, PoissonProblem2D
from repro.data.sobol import sample_omega
from repro.serve import ModelRegistry, PredictionServer, ServerConfig

try:
    from .common import bench_cli, report, write_bench_json
except ImportError:  # pragma: no cover - script mode
    from common import bench_cli, report, write_bench_json

RESOLUTION = 16
BASE_FILTERS = 8
DEPTH = 3          # deep enough that one fused forward takes real time,
                   # so a saturated queue is where latency accrues
N_REQUESTS = 96
HIGH_EVERY = 4     # every 4th request is high-priority (25% of load)
HIGH_PRIORITY = 5
MAX_BATCH = 8
MAX_WAIT_MS = 2.0
ROUNDS = 3         # interleaved plain/lane rounds; per-mode best QPS
                   # (single runs are too noisy on shared CI hosts)


def _make_registry() -> ModelRegistry:
    problem = PoissonProblem2D(RESOLUTION)
    model = MGDiffNet(ndim=2, base_filters=BASE_FILTERS, depth=DEPTH, rng=42)
    registry = ModelRegistry()
    registry.register_model("bench", model, problem)
    return registry


def _server(registry: ModelRegistry) -> PredictionServer:
    # Cache off so every request computes; one worker so the queue is
    # the contended resource the scheduler disciplines.
    return PredictionServer(registry, ServerConfig(
        max_batch=MAX_BATCH, max_wait_ms=MAX_WAIT_MS, workers=1,
        cache_bytes=0))


def _lanes(n_requests: int) -> list[tuple[str, int]]:
    """(lane, priority) per request: every HIGH_EVERY-th is high."""
    return [("high", HIGH_PRIORITY) if i % HIGH_EVERY == 0 else ("low", 0)
            for i in range(n_requests)]


def _measure_lanes(registry: ModelRegistry, omegas: np.ndarray,
                   latencies: dict[str, list[float]]) -> dict:
    """Mixed-priority load through ``submit`` futures; per-lane latency
    appended into ``latencies`` (accumulated across rounds)."""
    server = _server(registry)

    def observe(lane: str, t0: float):
        return lambda _: latencies[lane].append(time.perf_counter() - t0)

    with server:
        t0 = time.perf_counter()
        futures = []
        for (lane, priority), w in zip(_lanes(len(omegas)), omegas):
            sent = time.perf_counter()
            future = server.submit("bench", w, priority=priority)
            future.add_done_callback(observe(lane, sent))
            futures.append(future)
        for f in futures:
            f.result()
        wall = time.perf_counter() - t0
    return {"mode": "lanes", "qps": len(omegas) / wall, "wall_s": wall}


def _measure_sync(registry: ModelRegistry, omegas: np.ndarray) -> dict:
    """The plain baseline: submit/result, no priorities."""
    server = _server(registry)
    t0 = time.perf_counter()
    with server:
        futures = [server.submit("bench", w) for w in omegas]
        for f in futures:
            f.result()
        wall = time.perf_counter() - t0
    s = server.stats
    return {"mode": "sync", "qps": len(omegas) / wall, "wall_s": wall,
            "p50_ms": s.p50 * 1e3, "p99_ms": s.p99 * 1e3}


def _run(n_requests: int = N_REQUESTS, rounds: int = ROUNDS) -> dict:
    registry = _make_registry()
    omegas = sample_omega(n_requests, 4)
    # One inline forward warms conv-plan and pool caches for both runs.
    PredictionServer(registry, ServerConfig(cache_bytes=0)).predict(
        "bench", omegas[0])
    # Interleave the modes round by round and keep per-mode *bests*: on
    # a shared host a single measurement is hostage to whatever else
    # ran in that instant.
    latencies: dict[str, list[float]] = {"high": [], "low": []}
    sync_rounds, lane_rounds = [], []
    for _ in range(max(1, rounds)):
        sync_rounds.append(_measure_sync(registry, omegas))
        lane_rounds.append(_measure_lanes(registry, omegas, latencies))
    sync = max(sync_rounds, key=lambda r: r["qps"])
    lanes = dict(max(lane_rounds, key=lambda r: r["qps"]))
    for lane in ("high", "low"):
        lat = np.asarray(latencies[lane])
        lanes[f"{lane}_n"] = int(lat.size)
        lanes[f"{lane}_p50_ms"] = float(np.percentile(lat, 50)) * 1e3
        lanes[f"{lane}_p99_ms"] = float(np.percentile(lat, 99)) * 1e3
    return {
        "resolution": RESOLUTION, "base_filters": BASE_FILTERS,
        "depth": DEPTH, "n_requests": n_requests,
        "high_fraction": 1.0 / HIGH_EVERY, "max_batch": MAX_BATCH,
        "rounds": rounds, "sync": sync, "lanes": lanes,
        "sync_qps_rounds": [r["qps"] for r in sync_rounds],
        "lanes_qps_rounds": [r["qps"] for r in lane_rounds],
    }


def _report(result: dict) -> None:
    a, s = result["lanes"], result["sync"]
    report("priority_lanes",
           ["mode", "lane", "n", "qps", "p50_ms", "p99_ms"],
           [["sync", "all", result["n_requests"], round(s["qps"], 1),
             round(s["p50_ms"], 2), round(s["p99_ms"], 2)],
            ["lanes", "high", a["high_n"], round(a["qps"], 1),
             round(a["high_p50_ms"], 2), round(a["high_p99_ms"], 2)],
            ["lanes", "low", a["low_n"], round(a["qps"], 1),
             round(a["low_p50_ms"], 2), round(a["low_p99_ms"], 2)]])


def _gate(result: dict) -> int:
    """Exit status: 0 when the high lane's p99 beats the low lane's."""
    a = result["lanes"]
    if a["high_p99_ms"] < a["low_p99_ms"]:
        result["priority_gate"] = "ok"
        print(f"priority gate ok: high p99 {a['high_p99_ms']:.1f} ms < "
              f"low p99 {a['low_p99_ms']:.1f} ms")
        return 0
    result["priority_gate"] = "failed"
    print(f"FAIL: high-priority p99 {a['high_p99_ms']:.1f} ms not "
          f"below low-priority p99 {a['low_p99_ms']:.1f} ms")
    return 1


def test_priority_lanes(benchmark):
    # Downscaled for wall time; the shape under test is that priority
    # lanes separate under saturation.
    result = benchmark.pedantic(lambda: _run(n_requests=48, rounds=2),
                                rounds=1, iterations=1)
    _report(result)
    a = result["lanes"]
    assert a["high_p99_ms"] < a["low_p99_ms"], (
        f"high p99 {a['high_p99_ms']:.1f} ms not below "
        f"low p99 {a['low_p99_ms']:.1f} ms")


if __name__ == "__main__":
    args = bench_cli(
        "bench_async_serve",
        extra_args=lambda p: p.add_argument(
            "--json", default=None, metavar="PATH",
            help="also write a JSON artifact (used by CI)"))
    result = _run()
    _report(result)
    status = _gate(result)
    if args.json:
        write_bench_json(args.json, "async_serve", result,
                         gate="pass" if status == 0 else "fail")
        print(f"wrote {args.json}")
    sys.exit(status)
