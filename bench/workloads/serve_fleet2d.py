"""serve_fleet2d — clients of the sharded serving fleet.

``ShardedFleet(shards=2, replicas=2)`` of ``PredictionServer(max_batch=8,
max_wait_ms=2, workers=1)`` with a result cache sized for 64 fields each,
serving one ``MGDiffNet(ndim=2, base_filters=8, depth=3)`` at 32^2 under
four names.  Request mix: 30 % repeat one of 32 hot (model, omega) pairs,
70 % carry a fresh omega — a working set larger than the caches, so the
LRU churns (hit rate ~0.2).

Phase A is an **open loop** at 100 requests/s (independent clients;
latency from each request's due time): its median is ``op_ms``.  Phase B
is a **closed loop** with 16 requests outstanding: completions per second
are ``work_per_s``.  The traced pass adds a rate ladder (150/200/300
requests/s) and reads the fleet's own telemetry spans.

Exercises submit -> route -> queue -> batch -> forward -> cache.  Batching
gains only show in phase B, queueing only in phase A and the ladder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import MGDiffNet, PoissonProblem2D
from repro.core.inference import predict_batch
from repro.serve import FleetConfig, ServerConfig, ShardedFleet, Telemetry

from .. import harness
from . import Measured
from .common import TRACE_NAMES, rng_for

RESOLUTION = 32
NAMES = ("m0", "m1", "m2", "m3")
HOT_PAIRS = 32
HOT_SHARE = 0.3
CACHE_FIELDS = 64
STREAM_LENGTH = 16384          # requests generated per worker
RATE = 100.0                   # phase A, requests/s
CONCURRENCY = 16               # phase B, requests outstanding
LADDER = (150.0, 200.0, 300.0)
LATENCY_LIMIT_MS = 25.0        # on p95, for serve.fleet.max_ok_rps
WARMUP_S = 0.5
SAMPLED_REPLIES = 16
TOLERANCE = 1e-5

# fleet telemetry span -> metric stem; ``self`` = duration minus children.
SPANS = {"fleet.request": ("serve.fleet.route_self_s", True),
         "fleet.attempt": ("serve.fleet.attempt_s", False),
         "queue.wait": ("serve.server.queue_wait_s", False),
         "batch.collect": ("serve.batching.collect_s", False),
         "server.forward": ("serve.server.forward_s", False),
         "server.request": ("serve.server.request_self_s", True)}

PER_LAYER = tuple(f"{stem}.{q}" for stem, _ in SPANS.values()
                  for q in ("p50", "p95")) + (
    "serve.telemetry.overhead_frac", "serve.batching.mean_batch",
    "serve.cache.hit_rate", "serve.server.dedup_hits", "serve.fleet.lost",
    "serve.fleet.failovers", "serve.fleet.p95_ms", "serve.fleet.p99_ms",
    "serve.fleet.closed_qps", "serve.fleet.max_ok_rps",
    "serve.loadgen.late_max_ms") + TRACE_NAMES


@dataclass
class State:
    fleet: ShardedFleet
    model: MGDiffNet
    problem: object
    requests: list            # (name, omega) pairs, consumed front to back
    cursor: int = 0

    def take(self, n: int) -> list:
        if self.cursor + n > len(self.requests):
            raise RuntimeError("request stream exhausted")
        chunk = self.requests[self.cursor:self.cursor + n]
        self.cursor += n
        return chunk

    def submit(self, request):
        name, omega = request
        return self.fleet.submit(name, omega)


def make_inputs(seed: int, part: int) -> dict[str, np.ndarray]:
    rng = rng_for(seed, part, 0)
    hot_names = rng.integers(0, len(NAMES), HOT_PAIRS)
    hot_omegas = rng.uniform(-3.0, 3.0, (HOT_PAIRS, 4))
    hot = rng.random(STREAM_LENGTH) < HOT_SHARE
    pick = rng.integers(0, HOT_PAIRS, STREAM_LENGTH)
    names = np.where(hot, hot_names[pick],
                     rng.integers(0, len(NAMES), STREAM_LENGTH))
    omegas = np.where(hot[:, None], hot_omegas[pick],
                      rng.uniform(-3.0, 3.0, (STREAM_LENGTH, 4)))
    return {"names": names, "omegas": omegas,
            "model_seed": np.array([seed], dtype=np.int64)}


def setup(inputs, telemetry: Telemetry | None = None) -> State:
    problem = PoissonProblem2D(RESOLUTION)
    model = MGDiffNet(ndim=2, base_filters=8, depth=3,
                      rng=int(inputs["model_seed"][0]))
    field_bytes = RESOLUTION * RESOLUTION * np.dtype(np.float32).itemsize
    fleet = ShardedFleet(FleetConfig(shards=2, replicas=2, server=ServerConfig(
        max_batch=8, max_wait_ms=2.0, workers=1,
        cache_bytes=CACHE_FIELDS * field_bytes)))
    for name in NAMES:
        fleet.register_model(name, model, problem)
    if telemetry is not None:
        fleet.enable_telemetry(telemetry)
    fleet.start()
    state = State(fleet=fleet, model=model, problem=problem,
                  requests=[(NAMES[n], w) for n, w in
                            zip(inputs["names"], inputs["omegas"])])
    try:
        for name in NAMES:                       # warm every routing key,
            fleet.predict(name, state.take(1)[0][1], timeout=120)
        harness.open_loop(state.submit,          # then the batching path
                          state.take(int(RATE * WARMUP_S)), RATE)
    except BaseException:
        fleet.close()
        raise
    return state


def teardown(state: State) -> None:
    state.fleet.close()


@dataclass
class PhaseA:
    requests: list
    load: harness.LoadResult


def _phase_a(state: State, seconds: float) -> PhaseA:
    requests = state.take(max(1, int(RATE * seconds)))
    step = max(1, len(requests) // SAMPLED_REPLIES)
    keep = range(0, len(requests), step)[:SAMPLED_REPLIES]
    return PhaseA(requests, harness.open_loop(state.submit, requests, RATE,
                                              keep=keep))


def _phase_b(state: State, seconds: float) -> harness.LoadResult:
    # 2500/s is far above what the fleet completes; unused requests are
    # handed back so later phases see the same stream positions.
    budget = int(2500 * seconds) + CONCURRENCY
    start = state.cursor
    result = harness.closed_loop(state.submit, state.take(budget),
                                 CONCURRENCY, seconds)
    state.cursor = start + result.sent
    return result


def measure(state: State, seconds: float) -> Measured:
    a = _phase_a(state, 0.6 * seconds)
    b = _phase_b(state, 0.4 * seconds)
    return Measured(op_ms=a.load.latency_ms, items=b.completed,
                    wall_s=b.wall_s, attempted=a.load.sent + b.sent,
                    failed=a.load.failed + b.failed, keep={"a": a})


def _wrong_replies(state: State, a: PhaseA) -> list[str]:
    failures = []
    for i, reply in a.load.replies.items():
        _, omega = a.requests[i]
        expected = predict_batch(state.model, state.problem, omega)[0]
        err = float(np.abs(reply - expected).max())
        if not err <= TOLERANCE:
            failures.append(f"reply {i}: max|fleet - predict_batch| = {err}")
    if len(a.load.replies) < min(SAMPLED_REPLIES, a.load.sent):
        failures.append(f"only {len(a.load.replies)} sampled replies came back")
    return failures


def check(state: State, measured: Measured) -> list[str]:
    failures = _wrong_replies(state, measured.keep["a"])
    lost = state.fleet.stats.lost
    if lost != 0:
        failures.append(f"fleet lost {lost} requests")
    return failures


# --------------------------------------------------------------------- #
# Traced pass
# --------------------------------------------------------------------- #
def _rate_ok(result: harness.LoadResult, rate: float) -> bool:
    """A rate is sustained when nothing failed, p95 meets the limit and
    the backlog when the last request went out is no more than twice
    what that latency implies (Little's law) — i.e. it is not growing."""
    return (result.failed == 0
            and harness.percentile(result.latency_ms, 95.0) <= LATENCY_LIMIT_MS
            and result.outstanding_at_end
            <= 2.0 * rate * LATENCY_LIMIT_MS / 1e3)


def _span_metrics(spans) -> dict[str, float]:
    spans = [s for s in spans if s.end is not None]
    selfs = harness.self_times(spans)
    out = {}
    for name, (stem, use_self) in SPANS.items():
        values = [selfs[s.span_id] if use_self else s.end - s.start
                  for s in spans if s.name == name]
        for q, label in ((50.0, "p50"), (95.0, "p95")):
            out[f"{stem}.{label}"] = (harness.percentile(values, q)
                                      if values else 0.0)
    return out


def trace(state: State, inputs, seconds: float, rec):
    phase_a_s, phase_b_s, rung_s = seconds / 3, seconds / 6, seconds / 6

    # Untraced reference on the worker's own fleet, then the ladder.
    phase_a = _phase_a(state, phase_a_s)
    a = phase_a.load
    b = _phase_b(state, phase_b_s)
    stats = state.fleet.stats
    ok_rates = [RATE] if _rate_ok(a, RATE) else []
    for rate in LADDER:
        rung = harness.open_loop(state.submit,
                                 state.take(int(rate * rung_s)), rate)
        if _rate_ok(rung, rate):
            ok_rates.append(rate)
    failures = _wrong_replies(state, phase_a)
    metrics = {
        "serve.batching.mean_batch":
            stats.batched_requests / max(stats.batches, 1),
        "serve.cache.hit_rate": stats.cache_hits / max(stats.requests, 1),
        "serve.server.dedup_hits": stats.dedup_hits,
        "serve.fleet.failovers": stats.failovers,
        "serve.fleet.p95_ms": harness.percentile(a.latency_ms, 95.0),
        "serve.fleet.p99_ms": harness.percentile(a.latency_ms, 99.0),
        "serve.fleet.closed_qps": b.completed / b.wall_s,
        "serve.fleet.max_ok_rps": max(ok_rates, default=0.0),
        "serve.loadgen.late_max_ms": max(a.late_ms),
    }

    # The same phases on a twin fleet with the repo's telemetry enabled.
    telemetry = Telemetry(trace_capacity=1 << 20)
    twin = setup(inputs, telemetry=telemetry)
    try:
        telemetry.tracer.clear()                  # drop warm-up spans
        with rec.span("bench.phase_a"):
            traced_a = _phase_a(twin, phase_a_s)
        spans = telemetry.tracer.spans()
        with rec.span("bench.phase_b"):
            tb = _phase_b(twin, phase_b_s)
        lost = twin.fleet.stats.lost + state.fleet.stats.lost
        # Which requests share a fused forward depends on timing, so replies
        # are not bitwise repeatable; the traced ones get the same check.
        failures += _wrong_replies(twin, traced_a)
    finally:
        twin.fleet.close()
    ta = traced_a.load
    metrics["serve.fleet.lost"] = lost
    metrics.update(_span_metrics(spans))

    if lost != 0:
        failures.append(f"fleet lost {lost} requests")
    failures += [f"{n} requests failed" for n in
                 (a.failed + b.failed + ta.failed + tb.failed,) if n]

    metrics["serve.telemetry.overhead_frac"] = (
        (b.completed / b.wall_s) / (tb.completed / tb.wall_s) - 1.0)
    metrics["trace_overhead_frac"] = (
        harness.median(ta.latency_ms) / harness.median(a.latency_ms) - 1.0)
    # Client-side wait the fleet's own root spans do not cover: generator
    # lateness, the submit call before the span opens, reply delivery.
    covered_ms = sum((s.end - s.start) * 1e3 for s in spans
                     if s.name == "fleet.request" and s.end is not None)
    metrics["trace_unattributed_frac"] = max(
        0.0, 1.0 - covered_ms / sum(ta.latency_ms))
    return metrics, failures
