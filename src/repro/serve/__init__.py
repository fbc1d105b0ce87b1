"""repro.serve — batching, caching inference serving at megavoxel scale.

The paper's economic argument (Sec. 4.3) is that one trained MGDiffNet
amortizes over many ω queries, each orders of magnitude cheaper than a
FEM solve.  This package is the infrastructure realizing that claim:

* :class:`ModelRegistry` — named, versioned, validated checkpoint
  entries (``load``/``register_model``/``get``);
* :class:`PredictionServer` — priority/deadline request queue with
  bounded-queue backpressure, dynamic micro-batching, byte-bounded
  in-memory LRU result cache, sync and worker-thread front-ends;
* :class:`ShardedFleet` — consistent-hash routing of registry entries
  and request load over N server shards (simulated hosts) with R-way
  replication, fault ejection + failover, and re-admission when a
  shard answers (a served read, or an operator's ``check_health()``);
  failover is the one way a read heals, with no call-level retry, and
  with ``shard_timeout_s`` set a started fleet's watchdog fails over
  hung attempts, so a plain ``submit(...).result()`` heals too;
* :func:`tiled_predict` — exact full-field inference on grids too large
  for one forward pass, by level-wise tile sweeps over the U-Net (each
  level pays only its own conv radius as halo); it is also the server's
  forward (the untiled field is the one-tile
  plan; only a process executor ships an untiled batch to its pool
  whole);
* streaming tiled inference — :func:`stream_tiled_predict` yields tile
  cores as they complete (``repro predict --stream``), the same
  generator :func:`tiled_predict` stitches;
* unified telemetry (:class:`Telemetry`) — request tracing
  (:class:`Tracer` spans through submit → queue → batch → forward →
  tile → shard attempt, deterministic jsonl
  export) plus a metrics registry (:class:`MetricsRegistry` counters /
  quantile sketches, the stats dataclasses and the fleet's
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

from .batching import MicroBatcher, PredictRequest, RequestQueue
from .cache import CacheStats, LRUCache, quantize_omega, result_key
from .errors import (
    DeadlineExceeded, FleetUnavailable, ServeError, ServerOverloaded,
)
from .executor import (
    EXECUTOR_KINDS, Executor, ProcessExecutor, SerialExecutor,
    ThreadExecutor, default_workers, make_executor,
)
from .fleet import FleetConfig, FleetStats, Shard, ShardedFleet
from .hashring import HashRing
from .registry import ModelEntry, ModelRegistry, RegistryError, state_version
from .server import PredictionServer, ServerConfig, ServerStats
from .telemetry import (
    NULL_SPAN, NULL_TRACER, MetricsRegistry, NullSpan, NullTracer,
    QuantileSketch, Span, Telemetry, Tracer, export_jsonl, format_summary,
    parse_jsonl, summarize_spans,
)
from .tiling import (
    TilePlan, plan_tiles, receptive_halo, stream_tiled_forward,
    stream_tiled_predict, tiled_forward, tiled_predict,
)

__all__ = [
    "MicroBatcher", "PredictRequest", "RequestQueue",
    "CacheStats", "LRUCache", "quantize_omega", "result_key",
    "ServeError", "DeadlineExceeded", "ServerOverloaded", "FleetUnavailable",
    "EXECUTOR_KINDS", "Executor", "SerialExecutor", "ThreadExecutor",
    "ProcessExecutor", "default_workers", "make_executor",
    "FleetConfig", "FleetStats", "Shard", "ShardedFleet", "HashRing",
    "ModelEntry", "ModelRegistry", "RegistryError", "state_version",
    "PredictionServer", "ServerConfig", "ServerStats",
    "TilePlan", "plan_tiles", "receptive_halo",
    "tiled_forward", "tiled_predict",
    "stream_tiled_forward", "stream_tiled_predict",
    "Telemetry", "Tracer", "Span", "NullSpan", "NullTracer",
    "NULL_SPAN", "NULL_TRACER", "QuantileSketch",
    "MetricsRegistry", "export_jsonl", "parse_jsonl",
    "summarize_spans", "format_summary",
]
