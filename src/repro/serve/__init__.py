"""repro.serve — batching, caching inference serving at megavoxel scale.

The paper's economic argument (Sec. 4.3) is that one trained MGDiffNet
amortizes over many ω queries, each orders of magnitude cheaper than a
FEM solve.  This package is the infrastructure realizing that claim:

* :class:`ModelRegistry` — named, versioned, validated checkpoint
  entries (``load``/``register_model``/``get``);
* :class:`PredictionServer` — priority/deadline request queue with
  bounded-queue backpressure, dynamic micro-batching, size-bounded LRU
  result cache (optionally disk-spilled under a byte budget), sync and
  worker-thread front-ends;
* :class:`AsyncPredictionServer` — ``asyncio`` facade wrapping submitted
  futures into awaitables under the same scheduling policy;
* :class:`ShardedFleet` — consistent-hash routing of registry entries
  and request load over N server shards (simulated hosts) with R-way
  replication, fault ejection + failover, and probed re-admission;
* :class:`ControlPlane` — SLO policy loops over a live fleet:
  backoff-scheduled self-healing probes (:class:`HealthProber`),
  power-of-two-choices read spreading (:class:`PowerOfTwoBalancer`),
  per-tenant token-bucket admission (:class:`AdmissionController`) and
  queue-depth autoscaling (:class:`Autoscaler`);
* resilience policies (:func:`install_resilience`) — budgeted retries
  (:class:`RetryPolicy`), quantile-delayed hedged reads
  (:class:`HedgePolicy`) and per-(model, shard) circuit breakers
  (:class:`CircuitBreaker`) on the fleet's call path; every client
  retry loop is :func:`retry_call`, every quota and budget a
  :class:`~repro.serve.resilience.TokenBucket`;
* trace replay (:class:`ReplayHarness`) — deterministic scenario
  scripts (heavy-tailed arrivals, zipfian popularity, diurnal
  envelopes, coordinated fault schedules) replayed against a live
  fleet with byte-identical event logs per seed;
* :func:`tiled_predict` — exact full-field inference on grids too large
  for one forward pass, by level-wise tile sweeps over the U-Net (each
  level pays only its own conv radius as halo); it is also the server's
  forward (the untiled field is the one-tile
  plan; only a process executor ships an untiled batch to its pool
  whole);
* streaming tiled inference — :func:`stream_tiled_predict` yields tile
  cores as they complete, :meth:`PredictionServer.submit_stream` routes
  them through the priority/deadline/backpressure machinery
  (:class:`TileStream`), :meth:`AsyncPredictionServer.stream` is the
  ``async for`` face, and :meth:`ShardedFleet.stream` fails over
  mid-stream without re-sending delivered tiles;
* unified telemetry (:class:`Telemetry`) — request tracing
  (:class:`Tracer` spans through submit → queue → batch → forward →
  tile → shard attempt → hedge → stream delivery, deterministic jsonl
  export) plus a metrics registry (:class:`MetricsRegistry` counters /
  gauges / quantile sketches, the stats dataclasses and the fleet's
  counter ledger named as read-time views), enabled per server or fleet
  via ``enable_telemetry``; until then every layer holds the no-op
  :data:`NULL_TRACER`.

Quickstart::

    from repro.serve import ModelRegistry, PredictionServer, ServerConfig

    registry = ModelRegistry()
    registry.load("poisson2d", "checkpoints/model.npz")
    server = PredictionServer(registry, ServerConfig(max_batch=8))
    with server:                       # worker-thread front-end
        future = server.submit("poisson2d", omega)
        u = future.result()
    u = server.predict("poisson2d", omega)   # sync front-end, cached
"""

from .aio import AsyncPredictionServer
from .batching import MicroBatcher, PredictRequest, RequestQueue
from .cache import CacheStats, LRUCache, quantize_omega, result_key
from .control import (
    AdmissionController, Autoscaler, ControlConfig, ControlPlane,
    ControlStats, HealthProber, PowerOfTwoBalancer, TenantQuota,
)
from .errors import (
    DeadlineExceeded, FleetUnavailable, ServeError, ServerOverloaded,
    TenantThrottled,
)
from .executor import (
    EXECUTOR_KINDS, Executor, ProcessExecutor, SerialExecutor,
    ThreadExecutor, default_workers, make_executor,
)
from .fleet import FleetConfig, FleetStats, Shard, ShardedFleet
from .hashring import HashRing
from .registry import ModelEntry, ModelRegistry, RegistryError, state_version
from .replay import (
    ArrivalSpec, FaultSpec, PopularitySpec, ReplayHarness, ReplayReport,
    Scenario, TenantSpec, TraceEvent, VirtualClock, build_trace, event_log,
    load_scenario,
)
from .resilience import (
    BreakerConfig, CircuitBreaker, HedgeConfig, HedgePolicy, HedgeTimer,
    ResilienceConfig, RetryConfig, RetryPolicy, install_resilience,
    retry_call, uninstall_resilience,
)
from .server import (
    PredictionServer, ServerConfig, ServerStats, StreamStalled, TileStream,
)
from .spill_ledger import SpillLedger
from .telemetry import (
    NULL_SPAN, NULL_TRACER, Counter, Gauge, MetricsRegistry, NullSpan,
    NullTracer, QuantileSketch, Span, Telemetry, Tracer, export_jsonl,
    format_summary, parse_jsonl, summarize_spans,
)
from .tiling import (
    TilePlan, plan_tiles, receptive_halo, stream_tiled_forward,
    stream_tiled_predict, tiled_forward, tiled_predict,
)

__all__ = [
    "AsyncPredictionServer",
    "MicroBatcher", "PredictRequest", "RequestQueue",
    "CacheStats", "LRUCache", "quantize_omega", "result_key",
    "ServeError", "DeadlineExceeded", "ServerOverloaded",
    "TenantThrottled", "FleetUnavailable",
    "AdmissionController", "TenantQuota", "PowerOfTwoBalancer",
    "HealthProber", "Autoscaler",
    "ControlConfig", "ControlPlane", "ControlStats",
    "EXECUTOR_KINDS", "Executor", "SerialExecutor", "ThreadExecutor",
    "ProcessExecutor", "default_workers", "make_executor",
    "FleetConfig", "FleetStats", "Shard", "ShardedFleet", "HashRing",
    "SpillLedger",
    "RetryConfig", "RetryPolicy", "HedgeConfig", "HedgePolicy",
    "BreakerConfig", "CircuitBreaker", "HedgeTimer", "ResilienceConfig",
    "install_resilience", "uninstall_resilience", "retry_call",
    "ArrivalSpec", "PopularitySpec", "TenantSpec", "FaultSpec",
    "Scenario", "TraceEvent", "VirtualClock", "ReplayHarness",
    "ReplayReport", "build_trace", "event_log", "load_scenario",
    "ModelEntry", "ModelRegistry", "RegistryError", "state_version",
    "PredictionServer", "ServerConfig", "ServerStats", "TileStream",
    "StreamStalled",
    "TilePlan", "plan_tiles", "receptive_halo",
    "tiled_forward", "tiled_predict",
    "stream_tiled_forward", "stream_tiled_predict",
    "Telemetry", "Tracer", "Span", "NullSpan", "NullTracer",
    "NULL_SPAN", "NULL_TRACER", "Counter", "Gauge", "QuantileSketch",
    "MetricsRegistry", "export_jsonl", "parse_jsonl",
    "summarize_spans", "format_summary",
]
