"""Sharded serving fleet: consistent-hash routing over simulated hosts.

One :class:`~repro.serve.server.PredictionServer` scales to the cores of
one host; the paper's claim is a *fleet*.  This module spreads the model
registry and the request load across N server shards — each with its own
worker pool, compute executor, result cache and spill directory — the
way DNN-MG/GMT partition multigrid work across compute units:

* **Routing** — a consistent-hash ring (:class:`~repro.serve.hashring.
  HashRing`) over ``(model name, content version)`` assigns every model
  an R-way replica set.  Reads go to the primary and fail over along
  the replica order; writes (``register_model``/``load``/``unregister``/
  ``prune_spill``) fan out to every replica.
* **Failover** — a shard that raises, hangs past ``shard_timeout_s`` or
  is killed is *ejected* (marked unhealthy) and its in-flight request is
  re-dispatched to the next replica; the caller sees the replica's
  answer, not the fault.  Requests are conserved: every submit ends as
  exactly one of served / rejected / expired / errors / cancelled /
  unavailable / throttled (``FleetStats.lost == 0`` is the invariant
  the fault-injection suite enforces).
* **Recovery** — ``check_health()`` probes ejected shards with a real
  tiny prediction and re-admits the ones that answer (the control
  plane's prober adds a backoff schedule).  Routing also self-heals:
  when a key's whole replica set is ejected, dispatch makes one last
  pass ignoring health marks (non-blocking — safe from worker
  callbacks and event loops), and a shard that serves the answer is
  re-admitted on the spot, so a burst of false hang ejections cannot
  black-hole a key.
* **Control seams** — ``self.balancer`` (when installed) reorders each
  read's replica set by live queue depth (power-of-two-choices) and
  ``self.admission`` rations submits per tenant (token buckets →
  ``TenantThrottled``); membership is elastic (``add_shard`` /
  ``retire_shard`` / ``decommission_shard`` rebuild the ring with
  minimal key movement, re-registering models reconcile-before-swap).
  The :mod:`repro.serve.control` plane drives all of these.
* **Resilience seams** — ``self.retry`` / ``self.hedge`` /
  ``self.breaker`` (installed by :func:`~repro.serve.resilience.
  install_resilience`) add call-level healing: ``predict`` re-submits
  transient verdicts under a token-bucket retry budget (each retry is
  a fresh, individually conserved submit, counted ``retried``); slow
  reads race a backup request on a different replica after a
  quantile-tracked delay (first answer wins via the delivered-guard,
  losers are cancelled — ``hedges`` / ``hedged_wins`` /
  ``hedge_cancels``); open circuits per (model, shard) push a replica
  to the back of the dispatch order without ever dropping it
  (``breaker_open``).  ``FleetStats.lost == 0`` holds with all three
  switched on.
* **Cost model** — every routing hop (ω out, full field back) is charged
  to a :class:`~repro.distributed.comm.SimulatedCommunicator`, so the
  fig10-style scaling story extends to serving:
  ``benchmarks/bench_fleet_scaling.py`` reports measured QPS next to the
  virtual interconnect seconds of the simulated fleet.

Error discipline at the routing layer (:func:`~repro.serve.errors.
verdict`, one table for every read path): *request* errors (bad ω arity,
``DeadlineExceeded``, ``ServerOverloaded``, ``RegistryError``) belong to
the caller and propagate without ejecting anyone; every other exception
is a *shard fault* and triggers ejection + failover.

Quickstart::

    fleet = ShardedFleet(FleetConfig(shards=4, replicas=2))
    fleet.register_model("m", model, problem)
    with fleet:
        u = fleet.predict("m", omega)          # routed + failover
    fleet.stats.lost                           # 0 — conservation law
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import CancelledError, Future, InvalidStateError
from concurrent.futures import TimeoutError as FutureTimeout
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from ..distributed.comm import SimulatedCommunicator
from .errors import (
    DeadlineExceeded, FleetUnavailable, TenantThrottled, verdict,
)
from .hashring import HashRing
from .registry import ModelEntry, ModelRegistry, RegistryError, state_version
from .resilience import (
    HedgeTimer, _register_resilience_views, retry_call,
)
from .server import (
    PredictionServer, ServerConfig, StreamStalled, _LatencyPercentiles,
)
from .telemetry import NULL_SPAN, NULL_TRACER

__all__ = ["FleetConfig", "FleetStats", "Shard", "ShardedFleet"]

_LAT_WINDOW = 10_000

# The fleet's event counts: FleetStats fields the counter ledger owns
# (``ShardedFleet._c``), named ``fleet.<term>`` in the metrics registry.
_LEDGER_TERMS = (
    "submitted", "served", "rejected", "expired", "errors", "cancelled",
    "unavailable", "throttled", "failovers", "shard_faults", "hangs",
    "probes", "readmissions", "spreads", "scale_ups", "scale_downs",
    "decommissions", "reregistrations", "retried", "hedges", "hedged_wins",
    "hedge_cancels", "breaker_open", "streams", "stream_tiles_delivered",
    "stream_resumed")

# FleetStats fields re-exported as ``stats.fleet.*`` metric views when
# telemetry is enabled.  Views *read* the live stats snapshot, so the
# numbers stay bitwise-identical to ``fleet.stats`` itself.
_FLEET_VIEW_FIELDS = ("shards", "healthy_shards") + _LEDGER_TERMS + (
    "requests", "cache_hits", "dedup_hits", "batches", "batched_requests",
    "tiled_forwards", "lost", "p50", "p99")


@dataclass(frozen=True)
class FleetConfig:
    """Tunables of one :class:`ShardedFleet`."""

    shards: int = 2                   # simulated hosts
    replicas: int = 2                 # R-way replication (capped at shards)
    vnodes: int = 64                  # ring points per shard
    # Hang budget, measured from dispatch to answer — the shard's queue
    # wait counts, so set it above the worst-case backlog + compute time
    # or a merely busy shard will be ejected as hung.  False ejections
    # self-heal: when a key's whole replica set is down, routing makes
    # one last pass ignoring health marks, and a shard that answers is
    # re-admitted on the spot.  None disables hang detection.
    shard_timeout_s: float | None = None
    server: ServerConfig = field(default_factory=ServerConfig)
    # (message_bytes, world_size) -> seconds; None counts bytes only.
    time_model: Callable[[int, int], float] | None = None
    # True: all shards spill into ONE directory under one byte budget,
    # coordinated by the cross-process spill ledger (entries deduplicate
    # across replicas).  False: each shard owns a private subdirectory
    # with an independent budget.
    shared_spill: bool = False


class Shard:
    """One simulated host: a server plus its health record."""

    def __init__(self, shard_id: str, server: PredictionServer) -> None:
        self.id = shard_id
        self.server = server
        self.healthy = True
        self.ejected_at: float | None = None  # error-eject stamp
        self.fault_count = 0
        self.last_error: BaseException | None = None

    @property
    def queue_depth(self) -> int:
        """Live load gauge (pending + in-flight) of this shard's server
        — the signal p2c read spreading and the autoscaler key on."""
        return self.server.queue_depth()

    def __repr__(self) -> str:
        state = "healthy" if self.healthy else "ejected"
        return f"Shard({self.id!r}, {state}, faults={self.fault_count})"


@dataclass
class FleetStats(_LatencyPercentiles):
    """Merged fleet counters + summed per-shard serving statistics."""

    shards: int = 0
    healthy_shards: int = 0
    # Fleet-level request accounting (the conservation law's terms).
    submitted: int = 0
    served: int = 0
    rejected: int = 0          # backpressure (ServerOverloaded)
    expired: int = 0           # deadlines (DeadlineExceeded)
    errors: int = 0            # request-level errors (bad ω, registry)
    cancelled: int = 0         # caller cancelled the fleet future
    unavailable: int = 0       # every replica down (FleetUnavailable)
    throttled: int = 0         # per-tenant admission (TenantThrottled)
    # Fault machinery.
    failovers: int = 0         # re-dispatches after a shard fault
    shard_faults: int = 0      # ejections (errors + hangs + kills)
    hangs: int = 0             # ejections specifically for timeouts
    probes: int = 0
    readmissions: int = 0
    # Control-plane machinery (load spreading + elasticity).
    spreads: int = 0           # p2c reads diverted off the primary
    scale_ups: int = 0         # shards spawned (add_shard)
    scale_downs: int = 0       # shards drained + retired (retire_shard)
    decommissions: int = 0     # permanently lost shards removed
    reregistrations: int = 0   # (key, shard) re-registrations on moves
    # Resilience machinery (retry budgets, hedged reads, breakers).
    # A retry is a *fresh* submit — individually conserved — so none of
    # these are terms of the conservation law: ``hedged_wins`` is a
    # subset of ``served``, ``breaker_open`` reorders rather than drops.
    retried: int = 0           # policy-driven re-submits performed
    hedges: int = 0            # backup requests issued
    hedged_wins: int = 0       # served answers that came from a backup
    hedge_cancels: int = 0     # losing attempts shed after delivery
    breaker_open: int = 0      # replicas deprioritized by open circuits
    # Streaming reads.  A stream is one submit and ends in exactly one
    # conservation-law term like any other request; these count its
    # progress: tile records handed to the consumer (each delivered at
    # most once, across failovers) and mid-stream resumes on a
    # replacement replica.
    streams: int = 0           # streaming submits accepted
    stream_tiles_delivered: int = 0
    stream_resumed: int = 0    # mid-stream failovers that resumed
    # Summed per-shard ServerStats counters.
    requests: int = 0
    cache_hits: int = 0
    dedup_hits: int = 0
    batches: int = 0
    batched_requests: int = 0
    tiled_forwards: int = 0
    # Simulated interconnect (routing hops through the comm layer).
    send_calls: int = 0
    send_bytes: int = 0
    virtual_comm_seconds: float = 0.0
    latencies: list = field(default_factory=list)
    per_shard: dict = field(default_factory=dict)

    @property
    def lost(self) -> int:
        """Requests unaccounted for — zero is the conservation law."""
        return self.submitted - (self.served + self.rejected + self.expired
                                 + self.errors + self.cancelled
                                 + self.unavailable + self.throttled)


class _RouteState:
    """Mutable routing record of one fleet request (guarded by the
    fleet lock where it races with dispatch/failover)."""

    __slots__ = ("model_name", "omega", "resolution", "priority",
                 "deadline_s", "tenant", "replicas", "next_idx", "current",
                 "submitted_at", "attempt_started", "delivered",
                 "ignore_health", "hedged", "inners", "trace")

    def __init__(self, model_name: str, omega: np.ndarray,
                 resolution: int | None, priority: int | None,
                 deadline_s: float | None, replicas: list[Shard],
                 tenant: str | None = None) -> None:
        self.model_name = model_name
        self.omega = omega
        self.resolution = resolution
        self.priority = priority
        self.deadline_s = deadline_s
        self.tenant = tenant
        self.replicas = replicas
        self.next_idx = 0
        self.current: Shard | None = None
        self.submitted_at = time.monotonic()   # latency anchor (fixed)
        self.attempt_started = self.submitted_at  # hang detection (reset
        self.delivered = False                    # on every re-dispatch)
        self.ignore_health = False    # last-resort pass: try ejected too
        self.hedged = False           # a backup dispatch was attempted
        self.inners: list[Future] = []   # attempts issued (for shedding)
        self.trace = NULL_SPAN        # root span token (the context)


class _FleetFuture(Future):
    """A Future that remembers its routing state (hang failover needs
    to know which shard currently owns the attempt)."""

    def __init__(self, state: _RouteState) -> None:
        super().__init__()
        self.state = state


class ShardedFleet:
    """Consistent-hash-routed front-end over N server shards.

    API-compatible with :class:`PredictionServer` where it matters —
    ``submit`` / ``predict`` / ``predict_many`` / ``start`` / ``stop`` /
    ``close`` / context manager — so the asyncio facade
    (:class:`~repro.serve.aio.AsyncPredictionServer`) and the CLI client
    loop work unchanged on a fleet.
    """

    def __init__(self, config: FleetConfig | None = None) -> None:
        self.config = config or FleetConfig()
        if self.config.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.config.replicas < 1:
            raise ValueError("replicas must be >= 1")
        # Control-plane seams: a balancer reorders a key's replica set
        # per read (power-of-two-choices on queue depth); an admission
        # controller rations submits per tenant.  None = PR-5 behavior.
        self.balancer = None
        self.admission = None
        # Resilience seams: a retry policy re-submits transient verdicts
        # under a token-bucket budget; a hedge policy races slow reads
        # against a backup replica; a circuit breaker deprioritizes
        # (model, shard) pairs that keep faulting.  None = PR-7 behavior.
        self.retry = None
        self.hedge = None
        self.breaker = None
        self._hedge_timer: HedgeTimer | None = None
        # Tracing is a null object, not a seam: span sites call
        # ``self.tracer`` unconditionally and ``enable_telemetry`` swaps
        # the real one in, so traced, sampled-out and telemetry-off
        # requests take one path.  ``telemetry`` is the bundle handle,
        # for the few places that need its metrics *registry*.
        self.tracer = NULL_TRACER
        self.telemetry = None
        self.shards: list[Shard] = []
        self._by_id: dict[str, Shard] = {}
        self._retired: list[Shard] = []   # drained / decommissioned
        self._next_shard = 0              # monotone id source: shard ids
        #                                   never recycle across scaling
        self._lock = threading.RLock()
        for _ in range(self.config.shards):
            shard = self._make_shard()
            self.shards.append(shard)
            self._by_id[shard.id] = shard
        self._ring = HashRing([s.id for s in self.shards],
                              vnodes=self.config.vnodes)
        self._comm = SimulatedCommunicator(
            self.config.shards, time_model=self.config.time_model)
        self._catalog: dict[str, str] = {}      # model name -> version
        self._latencies: list[float] = []
        self._probe_seq = 0
        # The counter ledger: the only store of fleet event counts,
        # written through ``_count`` under the fleet lock.  ``stats``
        # and the registry's ``fleet.*`` / ``stats.fleet.*`` names are
        # read-time views over it.
        self._c = dict.fromkeys(_LEDGER_TERMS, 0)

    def _count(self, term: str, n: int = 1) -> None:
        with self._lock:
            self._c[term] += n

    @property
    def _r(self) -> int:
        """Live replication degree: the configured R capped by the
        *current* shard count (membership is dynamic now)."""
        return min(self.config.replicas, max(1, len(self.shards)))

    def _make_shard(self) -> Shard:
        """Build one shard (server + health record) under a fresh id."""
        with self._lock:
            shard_id = f"shard-{self._next_shard:02d}"
            self._next_shard += 1
        cfg = self.config.server
        if cfg.cache_dir is not None:
            if self.config.shared_spill:
                # One directory, one budget: every shard spills into
                # the same tier, coordinated by the spill ledger.
                # Replicas of one model share a single npz on disk.
                cfg = replace(cfg, shared_spill=True)
            else:
                # Each simulated host owns its spill directory:
                # budgets and LRU accounting are per-instance.
                cfg = replace(cfg, cache_dir=str(Path(cfg.cache_dir)
                                                 / shard_id))
        shard = Shard(shard_id, PredictionServer(ModelRegistry(), cfg))
        if self.telemetry is not None:
            # Shards born after enable_telemetry (autoscaler spawns)
            # join the same bundle.  Per-shard stats views would collide
            # across shards; the merged fleet views cover them.
            shard.server.enable_telemetry(self.telemetry,
                                          register_views=False)
        return shard

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "ShardedFleet":
        """Start every shard's worker fleet (idempotent).

        All compute executors are warmed *before* any worker thread
        exists anywhere: a fork-based pool on shard k must not fork a
        process already running shard j's compute threads.
        """
        for shard in self.shards:
            shard.server.executor.warm()
        for shard in self.shards:
            shard.server.start()
        return self

    def stop(self, drain: bool = True) -> None:
        for shard in self.shards:
            shard.server.stop(drain=drain)

    def close(self) -> None:
        with self._lock:
            timer, self._hedge_timer = self._hedge_timer, None
        if timer is not None:
            timer.close()
        for shard in self.shards:
            shard.server.close()

    def __enter__(self) -> "ShardedFleet":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def running(self) -> bool:
        return any(shard.server.running for shard in self.shards)

    def enable_telemetry(self, telemetry) -> None:
        """Thread one telemetry bundle through the whole fleet.

        Swaps the real tracer in on this fleet and on every shard
        server, present and future (``_make_shard`` wires shards born
        later), and names the fleet's numbers in the metrics registry
        as read-time views: ``fleet.<term>`` reads the counter ledger
        directly, ``stats.fleet.<field>`` reads the merged
        :class:`FleetStats` snapshot.  Views never shadow a value, so
        the registry cannot drift from ``fleet.stats``.  Idempotent for
        a given bundle.
        """
        with self._lock:
            self.telemetry = telemetry
            self.tracer = telemetry.tracer
            shards = list(self.shards)
        for shard in shards:
            shard.server.enable_telemetry(telemetry, register_views=False)
        reg = telemetry.metrics
        for term in _LEDGER_TERMS:
            reg.register_view(f"fleet.{term}", lambda t=term: self._c[t])
        for name in _FLEET_VIEW_FIELDS:
            reg.register_view(f"stats.fleet.{name}",
                              lambda n=name: getattr(self.stats, n))
        # Resilience seams may be installed before or after this call;
        # the views read the live seams either way.
        _register_resilience_views(self, reg)

    # ------------------------------------------------------------------ #
    # Registry writes: fan out to every replica of the routing key
    # ------------------------------------------------------------------ #
    def register_model(self, name: str, model, problem, path=None,
                       meta: dict | None = None) -> ModelEntry:
        """Register an in-memory model on its R replica shards."""
        version = state_version(model)
        with self._lock:
            replica_ids = self._ring.lookup((name, version), n=self._r)
            replicas = [self._by_id[sid] for sid in replica_ids]
        entry: ModelEntry | None = None
        for shard in replicas:
            # Pass the routing hash through: hashing the state dict once
            # here and once per replica would cost R+1 full-model hashes
            # per registration for an identical-by-construction result.
            entry = shard.server.registry.register_model(
                name, model, problem, path=path, meta=meta, version=version)
        with self._lock:
            old = self._catalog.get(name)
            self._catalog[name] = version
            if old is not None and old != version:
                # A retrained model routes to a (possibly) different
                # replica set; shards serving only the old version stop.
                stale = (set(self._ring.lookup((name, old), n=self._r))
                         - set(replica_ids))
                stale_shards = [self._by_id[sid] for sid in stale
                                if sid in self._by_id]
            else:
                stale_shards = []
        for shard in stale_shards:
            shard.server.registry.unregister(name)
        return entry

    def load(self, name: str, path, validate: bool = True) -> ModelEntry:
        """Load a checkpoint once, then fan the entry out to its
        replicas (validation runs once, not per shard)."""
        scratch = ModelRegistry()
        entry = scratch.load(name, path, validate=validate)
        return self.register_model(name, entry.model, entry.problem,
                                   path=entry.path, meta=entry.meta)

    def unregister(self, name: str) -> None:
        for shard in self.shards:
            shard.server.registry.unregister(name)
        with self._lock:
            self._catalog.pop(name, None)

    def prune_spill(self) -> int:
        """Fan spill pruning out to every shard; total files removed."""
        removed = 0
        for shard in self.shards:
            live = {e.version for e in shard.server.registry.entries()}
            removed += shard.server.cache.prune_spill(live)
        return removed

    def names(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._catalog))

    def get(self, name: str) -> ModelEntry:
        """The primary replica's entry (metadata reads never eject)."""
        _, replicas = self._route(name)
        return replicas[0].server.registry.get(name)

    def replicas_for(self, name: str) -> list[str]:
        """Shard ids serving ``name``, primary first."""
        _, replicas = self._route(name)
        return [shard.id for shard in replicas]

    def _route(self, name: str) -> tuple[str, list[Shard]]:
        with self._lock:
            version = self._catalog.get(name)
            known = sorted(self._catalog)
            if version is None:
                raise RegistryError(
                    f"no model named {name!r} registered in the fleet; "
                    f"available: {known}")
            # Lookup + id->shard mapping under one lock hold: membership
            # changes swap the ring and prune ``_by_id`` together, and a
            # replica list must never mix the two generations.
            ids = self._ring.lookup((name, version), n=self._r)
            return version, [self._by_id[i] for i in ids]

    # ------------------------------------------------------------------ #
    # Routed front-ends
    # ------------------------------------------------------------------ #
    def submit(self, model_name: str, omega: np.ndarray,
               resolution: int | None = None, *,
               priority: int | None = None,
               deadline_s: float | None = None,
               tenant: str | None = None) -> Future:
        """Route one prediction to its replica set; returns a Future.

        The primary healthy replica gets the request; a shard fault
        (anything but a request-level error) ejects that shard and
        re-dispatches to the next replica transparently.  Like
        ``PredictionServer.submit``, backpressure (``ServerOverloaded``)
        and an exhausted replica set (``FleetUnavailable``) raise
        synchronously on the initial dispatch — during an asynchronous
        failover they arrive through the future instead.

        With an admission controller installed (``self.admission``) a
        ``tenant``-tagged request first spends one token from that
        tenant's bucket; an empty bucket raises
        :class:`~repro.serve.errors.TenantThrottled` synchronously.
        Throttled requests still count as submitted — the conservation
        law covers them via the ``throttled`` counter.  With a balancer
        installed (``self.balancer``) the replica set is reordered per
        read (power-of-two-choices on queue depth) before dispatch.
        """
        span = self.tracer.start("fleet.request", model=model_name)
        try:
            state = self._open(model_name, omega, resolution, priority,
                               deadline_s, tenant)
        except Exception as exc:
            # Refused before dispatch (a throttle is counted, the
            # caller's unknown model is not) — close the span to export it.
            policy = verdict(exc)
            span.finish(outcome=policy[1] if policy else "error")
            raise
        state.trace = span
        out = _FleetFuture(state)
        self._count("submitted")
        self._dispatch(out, state, sync=True)
        hedge = self.hedge
        if hedge is not None and len(state.replicas) > 1 and not out.done():
            self._arm_hedge(out, hedge)
        return out

    def _open(self, model_name: str, omega: np.ndarray,
              resolution: int | None, priority: int | None,
              deadline_s: float | None,
              tenant: str | None) -> _RouteState:
        """The request prologue shared by ``submit`` and ``stream``:
        tenant admission, routing, replica ordering."""
        omega = np.asarray(omega, dtype=np.float64).reshape(-1)
        admission = self.admission
        if tenant is not None and admission is not None:
            retry_after = admission.try_acquire(tenant)
            if retry_after is not None:
                self._count("submitted")
                self._count("throttled")
                quota = admission.quota_for(tenant)
                raise TenantThrottled(model_name, tenant, retry_after,
                                      rate=quota.rate, burst=quota.burst)
        _, replicas = self._route(model_name)
        return _RouteState(model_name, omega, resolution, priority,
                           deadline_s,
                           self._order_replicas(model_name, replicas),
                           tenant=tenant)

    def _order_replicas(self, model_name: str,
                        replicas: list[Shard]) -> list[Shard]:
        """Apply the balancer (p2c spread) and breaker (open circuits to
        the back of the line, never out of it) to a read's replica set."""
        balancer = self.balancer
        if balancer is not None and len(replicas) > 1:
            ordered = balancer.order(replicas)
            if ordered[0] is not replicas[0]:
                self._count("spreads")
            replicas = ordered
        breaker = self.breaker
        if breaker is not None and len(replicas) > 1:
            allowed: list[Shard] = []
            deflected: list[Shard] = []
            for candidate in replicas:
                (allowed if breaker.allow((model_name, candidate.id))
                 else deflected).append(candidate)
            if allowed and deflected:
                # Open circuits go to the back of the line, never out
                # of it: a breaker deflects load toward replicas that
                # answer, but must not drop a request — when everything
                # else faults, the open circuit is still the last
                # resort and conservation holds.
                replicas = allowed + deflected
                self._count("breaker_open", len(deflected))
        return replicas

    def stream(self, model_name: str, omega: np.ndarray,
               resolution: int | None = None, *,
               priority: int | None = None,
               deadline_s: float | None = None,
               tenant: str | None = None,
               tiles=None, buffer_tiles: int = 2):
        """Routed streaming read: a generator of ``(tile_index,
        core_slices, core)`` records with *mid-stream* failover.

        Tiles the consumer already holds are never re-sent: the first
        replica fixes the tile-index set, and when a shard faults or
        stalls past ``shard_timeout_s`` mid-stream, the replacement
        replica is asked for exactly the undelivered subset
        (``submit_stream(..., tiles=...)``) — counted ``stream_resumed``
        — while every record handed out increments
        ``stream_tiles_delivered`` and charges the per-tile response hop
        to the comm model.  The conservation law covers streams like any
        other submit: each ends in exactly one of served / rejected /
        expired / errors / cancelled / unavailable / throttled
        (abandoning the generator mid-stream counts ``cancelled`` when
        it is closed).  A terminal
        :class:`~repro.serve.errors.DeadlineExceeded` carries the
        fleet-level ``tiles_delivered`` across all attempts.  The
        prologue (``_open``) runs eagerly, so a tenant throttle and an
        unknown model raise here, at call time; only the shard's own
        verdicts wait for the first ``next``.  Hedged backups and retry
        policies do not apply to streams (a stream is one stateful
        read, not a repeatable call).
        """
        return self._stream_run(
            self._open(model_name, omega, resolution, priority, deadline_s,
                       tenant), tiles, buffer_tiles)

    def _stream_run(self, state: _RouteState, tiles, buffer_tiles: int):
        """Generator body of :meth:`stream` (runs on first ``next``).

        Submission is counted here, when iteration actually starts, so
        a stream opened but never consumed leaves the conservation law
        untouched instead of permanently one short.  One ``fleet.stream``
        root span covers the consumed stream, with an instant
        ``stream.tile`` child per record handed out.
        """
        self._count("submitted")
        self._count("streams")
        span = self.tracer.start("fleet.stream", model=state.model_name)
        budget = self.config.shard_timeout_s
        delivered: set[int] = set()
        expected: set[int] | None = None   # fixed by the first replica
        remaining = tiles

        def end(term: str, label: str | None = None) -> None:
            # The stream's one conservation-law term, stamped on the
            # ledger and on the root span by the same call.
            self._count(term)
            span.finish(outcome=label or term, tiles=len(delivered))

        while True:
            source = None
            hang = False
            try:
                shard = self._next_replica(state)
                self._comm.send(state.omega.nbytes)   # routing hop: ω out
                source = shard.server.submit_stream(
                    state.model_name, state.omega, state.resolution,
                    priority=state.priority, deadline_s=state.deadline_s,
                    tenant=state.tenant, tiles=remaining,
                    buffer_tiles=buffer_tiles)
                if expected is None:
                    expected = set(source.tile_indices)
                else:
                    self._count("stream_resumed")
                while True:
                    try:
                        i, sl, core = source.next_record(timeout=budget)
                    except StopIteration:
                        break
                    if i in delivered:
                        continue   # failover guard: never re-sent
                    delivered.add(i)
                    self._count("stream_tiles_delivered")
                    self._comm.send(core.nbytes)   # response hop, per tile
                    self.tracer.start("stream.tile", parent=span,
                                      tile=i).finish()
                    yield i, sl, core
            except GeneratorExit:
                end("cancelled")
                source.close()
                raise
            except StreamStalled:
                fault = TimeoutError(
                    f"shard {shard.id} stalled mid-stream past "
                    f"shard_timeout_s={budget}")
                hang = True
            except Exception as exc:
                policy = verdict(exc)
                if policy is not None:
                    if isinstance(exc, DeadlineExceeded):
                        # Fleet-level progress across all attempts.
                        exc.tiles_delivered = len(delivered)
                    end(*policy)
                    raise
                fault = exc
            else:
                end("served")
                self._answered(state.model_name, shard,
                               state.attempt_started)
                return
            if source is not None:
                source.close()
            self._fault(state.model_name, shard, fault, hang=hang)
            self._count("failovers")
            if expected is not None:
                remaining = sorted(expected - delivered)
                if not remaining:
                    # The fault landed after the last tile reached the
                    # consumer: the stream is complete.
                    end("served")
                    return

    def predict(self, model_name: str, omega: np.ndarray,
                resolution: int | None = None,
                timeout: float | None = None, *,
                priority: int | None = None,
                deadline_s: float | None = None,
                tenant: str | None = None) -> np.ndarray:
        """Blocking routed prediction with hang failover.

        With ``config.shard_timeout_s`` set, a shard that neither
        answers nor errors within the budget is treated as hung: it is
        ejected and the request re-dispatched to the next replica —
        the blocking counterpart of the error-failover ``submit`` does
        asynchronously.  ``timeout`` bounds the overall wait.

        With a retry policy installed (``self.retry``) a transient
        verdict — :class:`FleetUnavailable`, :class:`ServerOverloaded`,
        :class:`TenantThrottled` — is re-submitted by
        :func:`~repro.serve.resilience.retry_call` after the policy's
        jittered backoff (``retry_after_s`` for throttles), as long as
        the fleet-wide retry budget grants a token.  Every retry is a
        fresh submit, so each attempt is individually conserved and
        ``retried`` counts the extras.
        """
        return retry_call(
            self.retry,
            lambda: self.await_result(
                self.submit(model_name, omega, resolution, priority=priority,
                            deadline_s=deadline_s, tenant=tenant), timeout),
            on_retry=self.note_retry)

    def note_retry(self, *_) -> None:
        """Count one policy-driven re-submit — the ``on_retry`` hook
        every retrying front-end (the blocking ``predict``, the asyncio
        facade, the replay harness, the CLI) reports through, so
        ``FleetStats.retried`` covers every path."""
        self._count("retried")

    def await_result(self, future: Future, timeout: float | None = None):
        """``future.result`` with hang failover for fleet futures.

        Blocking callers that hold raw ``submit`` futures (the CLI
        client loop, ``predict_many``) drain through here so
        ``config.shard_timeout_s`` ejects hung shards on their path
        too, not only in ``predict``.  Non-fleet futures just wait.
        """
        shard_budget = self.config.shard_timeout_s
        deadline = (time.monotonic() + timeout
                    if timeout is not None else None)
        while True:
            wait = shard_budget
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return future.result(0)
                wait = remaining if wait is None else min(wait, remaining)
            try:
                return future.result(wait)
            except DeadlineExceeded:
                raise                      # request-level, not a hang
            except FutureTimeout:
                if future.done():
                    # The answer landed in the race window between the
                    # wait lapsing and here; the next result() call
                    # returns the stored outcome immediately.
                    continue
                if not self.hang_failover(future):
                    if (deadline is not None
                            and time.monotonic() >= deadline):
                        raise

    def hang_failover(self, future: Future) -> bool:
        """Eject the shard a fleet future has been waiting on past
        ``shard_timeout_s`` and re-dispatch to the next replica.

        The non-blocking hang-recovery primitive shared by every
        front-end: ``await_result`` calls it after a wait times out, and
        the asyncio facade calls it from the event loop.  Returns
        ``True`` when a failover was performed, ``False`` when there is
        nothing to do (no fleet state, budget not yet elapsed on the
        current attempt, or the answer already landed).
        """
        state = getattr(future, "state", None)
        budget = self.config.shard_timeout_s
        if state is None or budget is None or future.done():
            return False
        with self._lock:
            elapsed = time.monotonic() - state.attempt_started
            hung = state.current
            if (hung is None or state.delivered
                    or elapsed < budget * 0.999):
                return False
            state.current = None   # claim: exactly one caller fails over
        self._fault(state.model_name, hung, TimeoutError(
            f"shard {hung.id} did not answer within "
            f"shard_timeout_s={budget}"), hang=True)
        with self._lock:
            if state.delivered:
                return False
            self._count("failovers")
        self._dispatch(future, state)
        return True

    def predict_many(self, model_name: str, omegas: np.ndarray,
                     resolution: int | None = None,
                     timeout: float | None = None, *,
                     priority: int | None = None,
                     deadline_s: float | None = None,
                     tenant: str | None = None) -> np.ndarray:
        omegas = np.atleast_2d(np.asarray(omegas, dtype=np.float64))
        futures = [self.submit(model_name, w, resolution, priority=priority,
                               deadline_s=deadline_s, tenant=tenant)
                   for w in omegas]
        return np.stack([self.await_result(f, timeout) for f in futures])

    # ------------------------------------------------------------------ #
    # Dispatch, failover, delivery
    # ------------------------------------------------------------------ #
    def _dispatch(self, out: Future, state: _RouteState,
                  sync: bool = False) -> None:
        """Hand the request to the next replica worth trying (loops
        past shards that fault synchronously)."""
        while True:
            try:
                shard = self._next_replica(state)
            except FleetUnavailable as exc:
                self._deliver(out, state, exc=exc, counter="unavailable")
                if sync:
                    raise
                return
            if not self._attempt(out, state, shard, sync=sync):
                return

    def _next_replica(self, state: _RouteState) -> Shard:
        """Advance ``state`` to the next replica to try — the walk every
        read (unary or stream) fails over along.  Exhausting the replica
        set is the request's ``FleetUnavailable`` verdict."""
        with self._lock:
            while True:
                while state.next_idx < len(state.replicas):
                    candidate = state.replicas[state.next_idx]
                    state.next_idx += 1
                    if candidate.healthy or state.ignore_health:
                        state.current = candidate
                        state.attempt_started = time.monotonic()
                        return candidate
                if state.ignore_health:
                    state.current = None
                    raise FleetUnavailable(
                        state.model_name, [s.id for s in state.replicas])
                # Last resort before declaring the key unavailable: one
                # pass over the replica set *ignoring* health marks.
                # Some ejections are false positives (the hang budget
                # includes queue wait), and unlike a blocking probe this
                # retry is safe from any thread — a worker callback or
                # the event loop.  A shard that answers is re-admitted
                # on delivery; a truly dead one faults straight through
                # to the unavailable verdict.
                state.ignore_health = True
                state.next_idx = 0

    def _attempt(self, out: Future, state: _RouteState, shard: Shard,
                 sync: bool = False, hedge: bool = False) -> bool:
        """Issue one attempt — primary or hedged backup — on ``shard``:
        comm hop, attempt span, shard ``submit``, done-callback.

        Returns ``True`` when the shard refused synchronously without
        settling the request (the caller moves on to another replica),
        ``False`` once the attempt is in flight or a verdict was
        delivered — which ``sync`` (the caller's own thread, initial
        dispatch) also re-raises, like ``PredictionServer.submit``.
        """
        self._comm.send(state.omega.nbytes)   # routing hop: ω out
        span = self.tracer.start(
            "fleet.hedge" if hedge else "fleet.attempt",
            parent=state.trace, shard=shard.id)
        try:
            inner = shard.server.submit(
                state.model_name, state.omega, state.resolution,
                priority=state.priority, deadline_s=state.deadline_s,
                tenant=state.tenant, trace_parent=span)
        except Exception as exc:
            unsettled = self._settle(out, state, shard, exc, span, hedge)
            if sync and not unsettled:
                raise
            return unsettled
        with self._lock:
            state.inners.append(inner)
        # Per-attempt anchor: the hedge policy must learn *service*
        # latency of the attempt that answers, not submit-anchored
        # wall time (which folds in hung primaries and hedge delays
        # and would ratchet the quantile toward max_delay_s).
        anchor = time.monotonic()
        inner.add_done_callback(
            lambda f: self._on_done(out, state, shard, f, anchor, span,
                                    hedge))
        return False

    def _on_done(self, out: Future, state: _RouteState, shard: Shard,
                 inner: Future, anchor: float, span,
                 hedge: bool = False) -> None:
        """Classify a shard answer: deliver, or eject + fail over.

        A hedged backup runs the same path with three differences: a
        win counts ``hedged_wins``, policy verdicts stay silent, and
        nothing is ever re-dispatched (see :meth:`_settle`).
        """
        try:
            exc = inner.exception()
        except CancelledError as cancel:
            exc = cancel
        if exc is not None:
            if self._settle(out, state, shard, exc, span, hedge) \
                    and not hedge:
                self._dispatch(out, state)
            return
        value = inner.result()
        won = self._deliver(out, state, result=value, counter="served",
                            anchor=anchor)
        span.finish(outcome="served", won=won)
        if won:
            if hedge:
                self._count("hedged_wins")
                policy = self.hedge
                if policy is not None:
                    policy.record_win()
            self._comm.send(value.nbytes)     # response hop: field back
            self._answered(state.model_name, shard, anchor)

    def _settle(self, out: Future, state: _RouteState, shard: Shard,
                exc: BaseException, span, hedge: bool) -> bool:
        """An attempt ended in ``exc``, synchronously or through its
        future: deliver the verdict, or record the fault.

        Returns ``True`` when the request is left without a verdict and
        should move on to another replica — for a primary attempt that
        also claims the re-dispatch (and counts the failover).
        """
        term, label = verdict(exc) or (None, None)
        if term is None:
            # No verdict: the shard's fault, not the request's.
            span.finish(outcome="fault", error=type(exc).__name__)
            self._fault(state.model_name, shard, exc)
        elif term == "cancelled":
            # A cancelled attempt is nobody's fault: hedge racing sheds
            # the losing inner future after the answer landed, and
            # ejecting the loser would punish a healthy replica for
            # being second.  An *undelivered* cancelled attempt (a
            # caller reached into the inner future) still fails over
            # below so the request is not lost — just without ejecting.
            span.finish(outcome="cancelled")
        elif hedge:
            # The primary attempt still owns the request — a hedge must
            # never *cause* a failure — so its policy verdicts are
            # recorded on the span and otherwise dropped.
            span.finish(outcome="policy", error=type(exc).__name__)
        else:
            span.finish(outcome=label)
            self._deliver(out, state, exc=exc, counter=term)
            return False
        if hedge:
            return True
        with self._lock:
            if state.delivered or state.current is not shard:
                # A newer attempt owns this request (hang failover
                # already moved on): record the fault, but a stale
                # straggler must not burn the remaining replicas.
                return False
            state.current = None          # claim the re-dispatch
            self._count("failovers")
        return True

    def _deliver(self, out: Future, state: _RouteState, *,
                 result=None, exc: BaseException | None = None,
                 counter: str = "served",
                 anchor: float | None = None) -> bool:
        """Resolve the fleet future exactly once and count the outcome.

        Returns ``False`` when this call lost the delivery race (a hang
        failover already answered) or the caller cancelled — stragglers
        must neither overwrite the result nor double-count.

        ``anchor`` is the winning attempt's dispatch stamp.  Client
        latency (``_latencies``) stays submit-anchored — a request that
        burned ``shard_timeout_s`` on a hung primary must report that
        wait — but the hedge policy's window gets ``now - anchor``, the
        *service* latency of the attempt that actually answered.
        Feeding submit-anchored samples would poison the quantile: every
        hedged win and hang failover folds the primary's wait into the
        sample, ratcheting the delay toward ``max_delay_s`` and
        disabling hedging exactly when it is needed.  Failed, cancelled
        and breaker-deflected attempts never reach this observation at
        all (``exc`` delivery records no sample; stragglers bounce off
        the delivered-guard above).
        """
        with self._lock:
            if state.delivered:
                return False
            state.delivered = True
        try:
            live = out.set_running_or_notify_cancel()
        except InvalidStateError:  # pragma: no cover - delivered guards this
            return False
        latency = None
        now = time.monotonic()
        if not live:
            counter = "cancelled"
        with self._lock:
            self._count(counter)
            if live and exc is None:
                latency = now - state.submitted_at
                self._latencies.append(latency)
                if len(self._latencies) > _LAT_WINDOW:
                    del self._latencies[:len(self._latencies) - _LAT_WINDOW]
        # Root span outcome == the conservation-law term counted.
        state.trace.finish(outcome=counter)
        if live:
            if exc is not None:
                out.set_exception(exc)
            else:
                out.set_result(result)
        hedge = self.hedge
        if hedge is not None and latency is not None:
            hedge.observe(now - anchor if anchor is not None else latency)
        if state.hedged:
            self._cancel_stragglers(state)
        return live

    # ------------------------------------------------------------------ #
    # Hedged reads + circuit-breaker bookkeeping
    # ------------------------------------------------------------------ #
    def _arm_hedge(self, out: "_FleetFuture", hedge) -> None:
        """Schedule a backup dispatch at now + the policy's tracked
        quantile delay (the timer thread is created lazily)."""
        with self._lock:
            timer = self._hedge_timer
            if timer is None:
                timer = self._hedge_timer = HedgeTimer()
        timer.schedule(time.monotonic() + hedge.delay_s(),
                       lambda: self.hedge_dispatch(out))

    def hedge_dispatch(self, future: Future) -> bool:
        """Issue one backup request for a still-pending fleet read.

        The hedge policy's dispatch primitive: the timer calls it after
        the quantile delay elapses, and deterministic tests call it
        directly.  Picks the first healthy replica that is not the
        current owner (skipping open circuits) and races a backup
        attempt against the primary — the delivered-guard in
        ``_deliver`` makes the race safe: first answer wins, exactly
        one outcome is counted, the loser is cancelled.  Returns
        ``True`` when a backup was actually issued.
        """
        state = getattr(future, "state", None)
        hedge = self.hedge
        if state is None or hedge is None or future.done():
            return False
        with self._lock:
            if state.delivered or state.hedged or state.current is None:
                return False
            state.hedged = True
            primary = state.current
            candidates = [s for s in state.replicas
                          if s.healthy and s is not primary]
        breaker = self.breaker
        for shard in candidates:
            if breaker is not None and not breaker.allow(
                    (state.model_name, shard.id)):
                continue
            if not self._attempt(future, state, shard, hedge=True):
                self._count("hedges")
                hedge.record_hedge()
                return True
        return False

    def _cancel_stragglers(self, state: _RouteState) -> None:
        """Cancel every unfinished attempt of a resolved hedge race.

        Queued losers are shed before they burn a worker slot (counted
        ``hedge_cancels``); already-running ones finish and bounce off
        the delivered-guard.
        """
        with self._lock:
            pending = [f for f in state.inners if not f.done()]
        hedge = self.hedge
        for inner in pending:
            if inner.cancel():
                self._count("hedge_cancels")
                if hedge is not None:
                    hedge.record_cancel()

    def _answered(self, model_name: str, shard: Shard,
                  dispatched_at: float) -> None:
        """A shard served a read of ``model_name`` — the strongest
        health probe there is: a shard ejected on a false hang (the
        budget includes queue wait) re-admits itself with its next
        answer, prober or no prober.

        After an *error* ejection only an attempt dispatched after it is
        evidence, though: a forward that was already computing when its
        host died answers late, and re-admitting on that straggler would
        hide the dead shard from the prober (which probes unhealthy
        shards only) until live traffic happened to fault on it again.
        Such a shard comes back through a probe (``check_health`` or the
        control plane's prober) or the ignore-health last-resort pass."""
        ejected_at = shard.ejected_at
        if ejected_at is not None and dispatched_at < ejected_at:
            return
        self._readmit(shard)
        breaker = self.breaker
        if breaker is not None:
            breaker.record_success((model_name, shard.id))

    def _fault(self, model_name: str, shard: Shard, exc: BaseException,
               hang: bool = False) -> None:
        """A shard fault on a read of ``model_name``: eject the shard
        and tell the (model, shard) breaker."""
        self._eject(shard, exc, hang=hang)
        breaker = self.breaker
        if breaker is not None:
            breaker.record_failure((model_name, shard.id))

    # ------------------------------------------------------------------ #
    # Health
    # ------------------------------------------------------------------ #
    def _readmit(self, shard: Shard) -> None:
        """Mark a shard healthy again (probe success, or a served
        answer from the last-resort ignore-health pass)."""
        with self._lock:
            if shard.healthy:
                return
            shard.healthy = True
            shard.ejected_at = None
            self._count("readmissions")

    def _eject(self, shard: Shard, exc: BaseException,
               hang: bool = False) -> None:
        with self._lock:
            shard.fault_count += 1
            shard.last_error = exc
            if not shard.healthy:
                return
            shard.healthy = False
            # A hang is a suspicion any answer refutes; an error is a
            # fact that answers dispatched before it cannot overturn.
            shard.ejected_at = None if hang else time.monotonic()
            self._count("shard_faults")
            if hang:
                self._count("hangs")

    @property
    def healthy_shards(self) -> list[str]:
        with self._lock:
            return [s.id for s in self.shards if s.healthy]

    def check_health(self) -> list[str]:
        """Probe every ejected shard; re-admit the ones that answer a
        real (tiny) prediction.  Returns re-admitted ids."""
        with self._lock:
            candidates = [s for s in self.shards if not s.healthy]
        return [s.id for s in candidates if self.probe_shard(s)]

    def probe_shard(self, shard: "Shard | str",
                    timeout_s: float | None = None) -> bool:
        """Probe one shard (by object or id); re-admit on success.

        The control-plane prober's entry point: unlike ``check_health``
        this targets exactly one shard and accepts an explicit probe
        budget, so a *hung* shard costs the prober ``timeout_s`` per
        attempt instead of the generous default recovery budget.
        Returns ``True`` when the shard answered and was re-admitted.
        """
        if isinstance(shard, str):
            with self._lock:
                shard = self._by_id.get(shard)
            if shard is None:
                return False
        self._count("probes")
        if self._probe(shard, budget_s=timeout_s):
            self._readmit(shard)
            return True
        return False

    def _probe(self, shard: Shard, budget_s: float | None = None) -> bool:
        """One real prediction through the shard's own front-end.

        A unique probe ω defeats the result cache (a cached field would
        mask a still-broken forward path); a shard serving no models is
        trivially healthy.
        """
        entries = shard.server.registry.entries()
        if not entries:
            return True
        entry = entries[0]
        with self._lock:
            self._probe_seq += 1
            seq = self._probe_seq
        omega = np.full(entry.problem.field.m, 1e-3 * seq)
        if budget_s is None:
            # The probe must be able to succeed on a shard that was
            # ejected for being *slow*, not broken: give it a budget
            # well above the hang threshold and let it jump any backlog
            # that caused the false ejection in the first place.
            budget_s = max(30.0, 4 * (self.config.shard_timeout_s or 0.0))
        try:
            shard.server.predict(entry.name, omega, timeout=budget_s,
                                 priority=2 ** 31)
        except Exception:
            return False
        return True

    # ------------------------------------------------------------------ #
    # Elastic membership: spawn / drain / decommission shards
    # ------------------------------------------------------------------ #
    def add_shard(self) -> str:
        """Spawn one shard and rebalance routing onto it; returns its id.

        Ordering is reconcile-before-swap: the new ring is computed,
        every model it routes to the newcomer is registered *first*,
        and only then does the ring swap in — routing never targets a
        shard that has not got the model yet.  Consistent hashing keeps
        the movement minimal: only keys whose replica set gains the new
        shard re-register; everything else stays put.

        Old owners displaced by the newcomer keep their registration as
        a *grace copy*: requests routed just before the swap are already
        queued on them and must still find the model.  Grace copies cost
        a registry reference (the model object is shared), are never
        routed to by the new ring, and make membership changes safe
        against in-flight work by construction instead of by timing.
        """
        shard = self._make_shard()
        shard.server.executor.warm()
        if self.running:
            shard.server.start()
        with self._lock:
            self.shards.append(shard)
            self._by_id[shard.id] = shard
            new_ring = HashRing([s.id for s in self.shards],
                                vnodes=self.config.vnodes)
            self._reconcile(new_ring)
            self._ring = new_ring
            self._count("scale_ups")
        return shard.id

    def retire_shard(self, shard_id: str | None = None,
                     drain_timeout_s: float = 30.0) -> str:
        """Drain one shard out of the fleet and tear it down; its id.

        Default victim is the least-loaded healthy shard (lowest queue
        depth) — retiring the busiest one would maximize disruption.
        The shard leaves the ring first (reconcile-before-swap moves
        its keys to the survivors), keeps its registry so in-flight and
        queued work still completes, is drained up to
        ``drain_timeout_s``, and only then closed.  Requests routed
        before the swap that fault on the closed server fail over along
        their replica list as usual — conservation holds throughout.
        """
        with self._lock:
            if len(self.shards) <= 1:
                raise ValueError("cannot retire the last shard")
            if shard_id is None:
                victims = [s for s in self.shards if s.healthy]
                victims = victims or list(self.shards)
                shard = min(victims, key=lambda s: s.queue_depth)
            else:
                shard = self._by_id[shard_id]
            self.shards.remove(shard)
            self._retired.append(shard)   # stays a re-registration
            #                               source for _reconcile
            new_ring = HashRing([s.id for s in self.shards],
                                vnodes=self.config.vnodes)
            self._reconcile(new_ring)
            self._ring = new_ring
            del self._by_id[shard.id]
            self._count("scale_downs")
        # Drain outside the lock: waiting on the retiree's queue while
        # holding the fleet lock would stall every submit in the fleet.
        deadline = time.monotonic() + drain_timeout_s
        while (shard.server.queue_depth() > 0
               and time.monotonic() < deadline):
            time.sleep(0.005)
        shard.server.close()
        return shard.id

    def decommission_shard(self, shard_id: str) -> int:
        """Remove a permanently lost shard and re-replicate its keys.

        The prober's last resort after ``permanent_after`` consecutive
        probe failures: the shard leaves the ring, survivors that the
        new ring assigns its keys get fresh registrations (copied from
        any remaining holder), and teardown is *best effort* on a
        daemon thread — joining a hung server's workers could block
        forever, and a dead host owes nobody a clean shutdown.  Returns
        the number of (key, shard) re-registrations performed.
        """
        with self._lock:
            shard = self._by_id.get(shard_id)
            if shard is None:
                return 0
            if len(self.shards) <= 1:
                raise ValueError("cannot decommission the last shard")
            shard.healthy = False
            self.shards.remove(shard)
            self._retired.append(shard)
            new_ring = HashRing([s.id for s in self.shards],
                                vnodes=self.config.vnodes)
            moves = self._reconcile(new_ring, exclude=(shard,))
            self._ring = new_ring
            del self._by_id[shard.id]
            self._count("decommissions")
        threading.Thread(target=shard.server.close, daemon=True).start()
        return moves

    def _reconcile(self, ring: HashRing, exclude: tuple = ()) -> int:
        """Register every catalogued model onto the replicas the *new*
        ring assigns it, copying the entry from any current holder.

        Called with the fleet lock held, BEFORE the ring swaps in.
        ``exclude`` names shards that must not serve as a copy source
        (a decommissioned host is gone; its registry is unreachable by
        assumption even if the simulation could still read it).
        Returns the number of (key, shard) registrations performed.
        """
        moves = 0
        r = min(self.config.replicas, max(1, len(self.shards)))
        dropped = {s.id for s in exclude}
        for name, version in list(self._catalog.items()):
            desired = ring.lookup((name, version), n=r)
            source = None
            for holder in list(self.shards) + list(self._retired):
                if holder.id in dropped:
                    continue
                try:
                    entry = holder.server.registry.get(name)
                except Exception:
                    continue
                if entry.version == version:
                    source = entry
                    break
            if source is None:
                continue   # no surviving holder; nothing to copy from
            for sid in desired:
                target = self._by_id.get(sid)
                if target is None:
                    continue
                try:
                    have = target.server.registry.get(name)
                except Exception:
                    have = None
                if have is not None and have.version == version:
                    continue
                target.server.registry.register_model(
                    name, source.model, source.problem, path=source.path,
                    meta=source.meta, version=version)
                moves += 1
        self._count("reregistrations", moves)
        return moves

    # Note there is deliberately no prune step after a membership
    # change.  Shrinking the ring never takes a key away from a
    # survivor (the R-walk only swaps the removed member for the next
    # distinct one), and on growth the displaced owners keep grace
    # copies: a request routed against the old ring may already sit in
    # their queue, and unregistering under it would fail that request
    # for no fault of its own.  Grace copies are registry references —
    # the model object is shared — and the ring never routes to them.

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #
    @property
    def stats(self) -> FleetStats:
        """Merged snapshot: fleet counters + summed per-shard stats."""
        with self._lock:
            merged = FleetStats(
                shards=len(self.shards),
                healthy_shards=sum(s.healthy for s in self.shards),
                latencies=list(self._latencies),
                **self._c)
            live = list(self.shards)
            retired = list(self._retired)
        log = self._comm.log
        merged.send_calls = log.send_calls
        merged.send_bytes = log.send_bytes
        merged.virtual_comm_seconds = log.virtual_comm_seconds
        # Retired shards are summed too: their serving history must not
        # vanish from the fleet totals when the autoscaler scales down.
        for shard in live + retired:
            s = shard.server.stats
            merged.requests += s.requests
            merged.cache_hits += s.cache_hits
            merged.dedup_hits += s.dedup_hits
            merged.batches += s.batches
            merged.batched_requests += s.batched_requests
            merged.tiled_forwards += s.tiled_forwards
        for shard in live:
            s = shard.server.stats
            merged.per_shard[shard.id] = {
                "healthy": shard.healthy,
                "faults": shard.fault_count,
                "requests": s.requests,
                "cache_hits": s.cache_hits,
                "errors": s.errors,
                "queue_depth": shard.queue_depth,
                "models": list(shard.server.registry.names()),
            }
        return merged

    def __repr__(self) -> str:
        healthy = len(self.healthy_shards)
        return (f"ShardedFleet(shards={len(self.shards)}, "
                f"healthy={healthy}, replicas={self._r}, "
                f"models={list(self.names())})")
