"""Sharded serving fleet: consistent-hash routing over simulated hosts.

One :class:`~repro.serve.server.PredictionServer` scales to the cores of
one host; the paper's claim is a *fleet*.  This module spreads the model
registry and the request load across N server shards — each with its own
worker pool, compute executor and result cache — the way DNN-MG/GMT
partition multigrid work across compute units:

* **Routing** — a consistent-hash ring (:class:`~repro.serve.hashring.
  HashRing`) over ``(model name, content version)`` assigns every model
  an R-way replica set.  Reads go to the primary and fail over along
  the replica order; writes (``register_model``/``load``/
  ``unregister``) fan out to every replica.
* **Failover** — a shard that raises, hangs past ``shard_timeout_s`` or
  is killed is *ejected* (marked unhealthy) and its in-flight request is
  re-dispatched to the next replica; the caller sees the replica's
  answer, not the fault.  Hangs are the fleet's own job: with
  ``shard_timeout_s`` set, a started fleet runs one watchdog thread
  that expires each attempt that long after its dispatch
  (:meth:`ShardedFleet.expire_hung`), so every fleet future heals,
  a plain ``submit(...).result()`` included.  Requests are conserved:
  every submit ends as exactly one of served / rejected / expired /
  errors / cancelled / unavailable (``FleetStats.lost == 0`` is the
  invariant the fault-injection suite and the fleet simulation
  enforce).
* **Recovery** — an ejected shard comes back three ways, with no
  background loop: it answers a read — any answer after a hang
  ejection, one dispatched after the ejection after an error
  (``_answered``); a key whose whole replica set is ejected makes one
  last dispatch pass ignoring health marks (non-blocking — safe from
  worker callbacks), and a shard that serves it is re-admitted on the
  spot, so a burst of false hang ejections cannot black-hole a key; or
  an operator calls ``check_health()``, which probes every ejected
  shard with a real tiny prediction and re-admits the ones that answer.
* **Permanent loss** — ``decommission_shard`` removes a shard for good:
  the ring is rebuilt without it (consistent hashing moves only its
  keys) and its models are re-registered from a live holder onto the
  survivors the new ring assigns, reconcile-before-swap.  The caller
  decides that a host is lost; the fleet never decommissions on its
  own.

Error discipline at the routing layer (:func:`~repro.serve.errors.
verdict`, one table for every read path): *request* errors (bad ω arity,
``DeadlineExceeded``, ``ServerOverloaded``, ``RegistryError``) belong to
the caller and propagate without ejecting anyone; every other exception
is a *shard fault* and triggers ejection + failover.  There is no
call-level retry on top: failover is the one way a read heals, and a
verdict reaches the caller once.

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
from concurrent.futures import CancelledError, Future
from dataclasses import dataclass, field

import numpy as np

from .errors import FleetUnavailable, verdict
from .hashring import HashRing
from .registry import ModelEntry, ModelRegistry, RegistryError, state_version
from .server import PredictionServer, ServerConfig
from .telemetry import NULL_SPAN, NULL_TRACER, QuantileSketch

__all__ = ["FleetConfig", "FleetStats", "Shard", "ShardedFleet"]

# The fleet's event counts: FleetStats fields the counter ledger owns
# (``ShardedFleet._c``), named ``stats.fleet.<term>`` in the metrics
# registry.
_LEDGER_TERMS = (
    "submitted", "served", "rejected", "expired", "errors", "cancelled",
    "unavailable", "failovers", "shard_faults", "hangs", "probes",
    "readmissions", "decommissions", "reregistrations")

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
    # Hang budget, measured from dispatch to answer — the shard's queue
    # wait counts, so set it above the worst-case backlog + compute time
    # or a merely busy shard will be ejected as hung.  False ejections
    # self-heal: when a key's whole replica set is down, routing makes
    # one last pass ignoring health marks, and a shard that answers is
    # re-admitted on the spot.  None disables hang detection.
    shard_timeout_s: float | None = None
    server: ServerConfig = field(default_factory=ServerConfig)

    def __post_init__(self) -> None:
        if self.shard_timeout_s is not None and not self.shard_timeout_s > 0:
            raise ValueError(f"shard_timeout_s must be > 0 or None, got "
                             f"{self.shard_timeout_s}")


class Shard:
    """One simulated host: a server plus its health record."""

    def __init__(self, shard_id: str, server: PredictionServer) -> None:
        self.id = shard_id
        self.server = server
        self.healthy = True
        self.ejected_at: float | None = None  # error-eject stamp
        self.fault_count = 0
        self.last_error: BaseException | None = None

    def __repr__(self) -> str:
        state = "healthy" if self.healthy else "ejected"
        return f"Shard({self.id!r}, {state}, faults={self.fault_count})"


@dataclass
class FleetStats:
    """Merged fleet counters + summed per-shard serving statistics.

    ``p50``/``p99`` are the fleet latency sketch's (submit to answer, in
    seconds) when the snapshot was taken; ``cache_hits`` sums every
    shard's cache, retired shards included."""

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
    # Fault machinery.
    failovers: int = 0         # re-dispatches after a shard fault
    shard_faults: int = 0      # ejections (errors + hangs + kills)
    hangs: int = 0             # ejections specifically for timeouts
    probes: int = 0
    readmissions: int = 0
    decommissions: int = 0     # permanently lost shards removed
    reregistrations: int = 0   # (key, shard) re-registrations on moves
    # Summed per-shard ServerStats counters.
    requests: int = 0
    cache_hits: int = 0
    dedup_hits: int = 0
    batches: int = 0
    batched_requests: int = 0
    tiled_forwards: int = 0
    p50: float = 0.0
    p99: float = 0.0
    per_shard: dict = field(default_factory=dict)

    @property
    def lost(self) -> int:
        """Requests unaccounted for — zero is the conservation law."""
        return self.submitted - (self.served + self.rejected + self.expired
                                 + self.errors + self.cancelled
                                 + self.unavailable)


class _RouteState:
    """Mutable routing record of one fleet request (guarded by the
    fleet lock where it races with dispatch/failover)."""

    __slots__ = ("model_name", "omega", "resolution", "priority",
                 "deadline_s", "replicas", "next_idx", "current", "attempt",
                 "submitted_at", "attempt_started", "delivered",
                 "ignore_health", "trace", "future")

    def __init__(self, model_name: str, omega: np.ndarray,
                 resolution: int | None, priority: int | None,
                 deadline_s: float | None, replicas: list[Shard]) -> None:
        self.model_name = model_name
        self.omega = omega
        self.resolution = resolution
        self.priority = priority
        self.deadline_s = deadline_s
        self.replicas = replicas
        self.next_idx = 0
        self.current: Shard | None = None   # the live attempt's shard
        self.attempt = 0    # the live attempt's number: a claim bumps it
        self.submitted_at = time.monotonic()   # latency anchor (fixed)
        self.attempt_started = self.submitted_at  # hang detection (reset
        self.delivered = False                    # on every re-dispatch)
        self.ignore_health = False    # last-resort pass: try ejected too
        self.trace = NULL_SPAN        # root span token (the context)
        self.future = Future()        # the caller's handle


class ShardedFleet:
    """Consistent-hash-routed front-end over N server shards.

    API-compatible with :class:`PredictionServer` where it matters —
    ``submit`` / ``predict`` / ``predict_many`` / ``start`` / ``stop`` /
    ``close`` / context manager — so the CLI client loop works unchanged
    on a fleet: its futures are plain ``Future`` objects.

    Every read takes one path: the ring's replica list in ring order,
    one attempt at a time, the next replica only after a fault.
    ``submit`` starts no thread: attempts finish on the shards' worker
    threads (or inline, on an unstarted fleet).  The fleet's one thread
    is the watchdog a started fleet runs when ``shard_timeout_s`` is
    set; it calls :meth:`expire_hung`, which the caller of an unstarted
    fleet calls itself.
    """

    def __init__(self, config: FleetConfig | None = None) -> None:
        self.config = config or FleetConfig()
        if self.config.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.config.replicas < 1:
            raise ValueError("replicas must be >= 1")
        # Tracing is a null object, not a seam: span sites call
        # ``self.tracer`` unconditionally and ``enable_telemetry`` swaps
        # the real one in, so traced, sampled-out and telemetry-off
        # requests take one path.  ``telemetry`` is the bundle handle,
        # for the few places that need its metrics *registry*.
        self.tracer = NULL_TRACER
        self.telemetry = None
        self.shards: list[Shard] = []
        self._by_id: dict[str, Shard] = {}
        self._retired: list[Shard] = []   # decommissioned
        self._lock = threading.RLock()
        for i in range(self.config.shards):
            shard = self._make_shard(f"shard-{i:02d}")
            self.shards.append(shard)
            self._by_id[shard.id] = shard
        self._ring = HashRing([s.id for s in self.shards])
        self._catalog: dict[str, str] = {}      # model name -> version
        self._latency = QuantileSketch("fleet.latency")
        self._probe_seq = 0
        # In-flight attempts, oldest dispatch first: every dispatch
        # re-inserts its request at the back, delivery removes it, so
        # the hang deadlines (dispatch + shard_timeout_s) are in order.
        self._armed: dict[_RouteState, None] = {}
        self._watchdog: threading.Thread | None = None
        self._watch_stop = threading.Event()
        # The counter ledger: the only store of fleet event counts,
        # written through ``_count`` under the fleet lock.  ``stats``
        # and the registry's ``stats.fleet.*`` names are read-time views
        # over it.
        self._c = dict.fromkeys(_LEDGER_TERMS, 0)

    def _count(self, term: str, n: int = 1) -> None:
        with self._lock:
            self._c[term] += n

    @property
    def _r(self) -> int:
        """Live replication degree: the configured R capped by the
        *current* shard count (decommissioning shrinks it)."""
        return min(self.config.replicas, max(1, len(self.shards)))

    def _make_shard(self, shard_id: str) -> Shard:
        """Build one shard (server + health record)."""
        return Shard(shard_id,
                     PredictionServer(ModelRegistry(), self.config.server))

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "ShardedFleet":
        """Start every shard's worker fleet and, with ``shard_timeout_s``
        set, the hang watchdog (idempotent).

        All compute executors are warmed *before* any worker thread
        exists anywhere: a fork-based pool on shard k must not fork a
        process already running shard j's compute threads.
        """
        for shard in self.shards:
            shard.server.executor.warm()
        for shard in self.shards:
            shard.server.start()
        with self._lock:
            if (self.config.shard_timeout_s is not None
                    and self._watchdog is None):
                self._watch_stop.clear()
                self._watchdog = threading.Thread(
                    target=self._watch, name="fleet-watchdog", daemon=True)
                self._watchdog.start()
        return self

    def _stop_watchdog(self) -> None:
        with self._lock:
            watchdog, self._watchdog = self._watchdog, None
        if watchdog is not None:
            self._watch_stop.set()
            watchdog.join()

    def stop(self, drain: bool = True) -> None:
        self._stop_watchdog()
        for shard in self.shards:
            shard.server.stop(drain=drain)

    def close(self) -> None:
        self._stop_watchdog()
        for shard in self.shards:
            shard.server.close()

    def __enter__(self) -> "ShardedFleet":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    def enable_telemetry(self, telemetry) -> None:
        """Thread one telemetry bundle through the whole fleet.

        Swaps the real tracer in on this fleet and on every shard
        server (per-shard stats views would collide across shards; the
        merged fleet views cover them), and names each of the fleet's
        numbers once in the metrics registry, as a read-time view
        ``stats.fleet.<field>`` of the merged :class:`FleetStats`
        snapshot.  Views never shadow a value, so the registry cannot
        drift from ``fleet.stats``.  Idempotent for a given bundle.
        """
        with self._lock:
            self.telemetry = telemetry
            self.tracer = telemetry.tracer
            shards = list(self.shards)
        for shard in shards:
            shard.server.enable_telemetry(telemetry, register_views=False)
        reg = telemetry.metrics
        for name in _FLEET_VIEW_FIELDS:
            reg.register_view(f"stats.fleet.{name}",
                              lambda n=name: getattr(self.stats, n))

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
               deadline_s: float | None = None) -> Future:
        """Route one prediction to its replica set; returns a Future.

        The primary healthy replica gets the request; a shard fault
        (anything but a request-level error) ejects that shard and
        re-dispatches to the next replica transparently.  Like
        ``PredictionServer.submit``, backpressure (``ServerOverloaded``)
        and an exhausted replica set (``FleetUnavailable``) raise
        synchronously on the initial dispatch — during an asynchronous
        failover they arrive through the future instead.
        """
        span = self.tracer.start("fleet.request", model=model_name)
        try:
            omega = np.asarray(omega, dtype=np.float64).reshape(-1)
            _, replicas = self._route(model_name)
            state = _RouteState(model_name, omega, resolution, priority,
                                deadline_s, replicas)
        except Exception as exc:
            # Refused before dispatch (the caller's unknown model is not
            # counted) — close the span to export it.
            policy = verdict(exc)
            span.finish(outcome=policy[1] if policy else "error")
            raise
        state.trace = span
        self._count("submitted")
        self._dispatch(state, sync=True)
        return state.future

    def predict(self, model_name: str, omega: np.ndarray,
                resolution: int | None = None,
                timeout: float | None = None, *,
                priority: int | None = None,
                deadline_s: float | None = None) -> np.ndarray:
        """Blocking routed prediction: ``submit(...).result(timeout)``.

        A verdict (``ServerOverloaded``, ``FleetUnavailable``, ...)
        raises once: the fleet heals shards, and a read heals through
        its failover — a hung shard's included, by the watchdog.
        """
        return self.submit(model_name, omega, resolution, priority=priority,
                           deadline_s=deadline_s).result(timeout)

    def predict_many(self, model_name: str, omegas: np.ndarray,
                     resolution: int | None = None,
                     timeout: float | None = None, *,
                     priority: int | None = None,
                     deadline_s: float | None = None) -> np.ndarray:
        omegas = np.atleast_2d(np.asarray(omegas, dtype=np.float64))
        futures = [self.submit(model_name, w, resolution, priority=priority,
                               deadline_s=deadline_s)
                   for w in omegas]
        return np.stack([f.result(timeout) for f in futures])

    # ------------------------------------------------------------------ #
    # Hang detection
    # ------------------------------------------------------------------ #
    def expire_hung(self, now: float) -> int:
        """Fail over every attempt dispatched ``shard_timeout_s`` or
        more before ``now``: eject its shard as hung and re-dispatch the
        request to the next replica.  Returns the number of failovers.

        The watchdog calls it with ``time.monotonic()``; on an unstarted
        fleet (submits run inline) the caller drives it.  A re-dispatch
        re-arms the request with a fresh deadline, so one call never
        expires an attempt it issued itself.
        """
        budget = self.config.shard_timeout_s
        if budget is None:
            return 0
        with self._lock:
            due = []
            for state in self._armed:
                if state.attempt_started + budget > now:
                    break
                due.append(state)
            claimed = []
            for state in due:
                del self._armed[state]
                if state.current is not None and not state.delivered:
                    claimed.append((state, state.current))
                    state.current = None   # claim: one failover per attempt
                    state.attempt += 1
        for state, hung in claimed:
            self._eject(hung, TimeoutError(
                f"shard {hung.id} did not answer within "
                f"shard_timeout_s={budget}"), hang=True)
            with self._lock:
                if state.delivered:
                    continue
                self._count("failovers")
            self._dispatch(state)
        return len(claimed)

    def _watch(self) -> None:
        """The watchdog: sleep until the oldest attempt is due, expire."""
        budget = self.config.shard_timeout_s
        wait = budget
        while not self._watch_stop.wait(max(wait, 0.0)):
            self.expire_hung(time.monotonic())
            with self._lock:
                oldest = next(iter(self._armed), None)
                wait = (budget if oldest is None else
                        oldest.attempt_started + budget - time.monotonic())

    # ------------------------------------------------------------------ #
    # Dispatch, failover, delivery
    # ------------------------------------------------------------------ #
    def _dispatch(self, state: _RouteState, sync: bool = False) -> None:
        """Hand the request to the next replica worth trying (loops
        past shards that fault synchronously)."""
        while True:
            try:
                shard, attempt = self._next_replica(state)
            except FleetUnavailable as exc:
                self._deliver(state, exc=exc, counter="unavailable")
                if sync:
                    raise
                return
            if not self._attempt(state, shard, attempt, sync=sync):
                return

    def _next_replica(self, state: _RouteState) -> tuple[Shard, int]:
        """Advance ``state`` to the next replica to try — the walk every
        read fails over along — and return it with the attempt's
        number.  Exhausting the replica set is the request's
        ``FleetUnavailable`` verdict."""
        with self._lock:
            while True:
                while state.next_idx < len(state.replicas):
                    candidate = state.replicas[state.next_idx]
                    state.next_idx += 1
                    if candidate.healthy or state.ignore_health:
                        state.current = candidate
                        state.attempt_started = time.monotonic()
                        self._armed.pop(state, None)     # re-arm
                        self._armed[state] = None
                        return candidate, state.attempt
                if state.ignore_health:
                    state.current = None
                    raise FleetUnavailable(
                        state.model_name, [s.id for s in state.replicas])
                # Last resort before declaring the key unavailable: one
                # pass over the replica set *ignoring* health marks.
                # Some ejections are false positives (the hang budget
                # includes queue wait), and unlike a blocking probe this
                # pass is safe from any thread, a worker callback
                # included.  A shard that answers is re-admitted on
                # delivery; a truly dead one faults straight through to
                # the unavailable verdict.
                state.ignore_health = True
                state.next_idx = 0

    def _attempt(self, state: _RouteState, shard: Shard, attempt: int,
                 sync: bool = False) -> bool:
        """Issue one attempt on ``shard``: attempt span, shard
        ``submit``, done-callback.

        Returns ``True`` when the shard refused synchronously without
        settling the request (the caller moves on to another replica),
        ``False`` once the attempt is in flight or a verdict was
        delivered — which ``sync`` (the caller's own thread, initial
        dispatch) also re-raises, like ``PredictionServer.submit``.
        """
        span = self.tracer.start("fleet.attempt", parent=state.trace,
                                 shard=shard.id)
        try:
            inner = shard.server.submit(
                state.model_name, state.omega, state.resolution,
                priority=state.priority, deadline_s=state.deadline_s,
                trace_parent=span)
        except Exception as exc:
            unsettled = self._settle(state, shard, attempt, exc, span)
            if sync and not unsettled:
                raise
            return unsettled
        dispatched_at = time.monotonic()
        inner.add_done_callback(
            lambda f: self._on_done(state, shard, attempt, f, dispatched_at,
                                    span))
        return False

    def _on_done(self, state: _RouteState, shard: Shard, attempt: int,
                 inner: Future, dispatched_at: float, span) -> None:
        """Classify a shard answer: deliver, or eject + fail over."""
        try:
            exc = inner.exception()
        except CancelledError as cancel:
            exc = cancel
        if exc is not None:
            if self._settle(state, shard, attempt, exc, span):
                self._dispatch(state)
            return
        value = inner.result()
        won = self._deliver(state, result=value, counter="served")
        span.finish(outcome="served", won=won)
        self._answered(shard, dispatched_at)

    def _settle(self, state: _RouteState, shard: Shard, attempt: int,
                exc: BaseException, span) -> bool:
        """An attempt ended in ``exc``, synchronously or through its
        future: deliver the verdict, or record the fault.

        Returns ``True`` when the request is left without a verdict and
        should move on to another replica; the caller then owns the
        re-dispatch (the failover is counted here).
        """
        term, label = verdict(exc) or (None, None)
        if term is None:
            # No verdict: the shard's fault, not the request's.
            span.finish(outcome="fault", error=type(exc).__name__)
            self._eject(shard, exc)
        elif term == "cancelled":
            # A cancelled attempt is nobody's fault: something reached
            # into the shard's future (a caller, a client-side drop),
            # and the shard that would have answered is healthy.  The
            # request still fails over below so it is not lost — just
            # without ejecting anyone.
            span.finish(outcome="cancelled")
        else:
            span.finish(outcome=label)
            self._deliver(state, exc=exc, counter=term)
            return False
        with self._lock:
            if state.delivered or state.attempt != attempt:
                # The watchdog already moved on from this attempt (its
                # re-dispatch may even be on this same shard): record
                # the fault, but a stale straggler must not burn the
                # remaining replicas.
                return False
            state.current = None          # claim the re-dispatch
            state.attempt += 1
            self._count("failovers")
        return True

    def _deliver(self, state: _RouteState, *,
                 result=None, exc: BaseException | None = None,
                 counter: str = "served") -> bool:
        """Resolve the fleet future exactly once and count the outcome.

        Returns ``False`` when this call lost the delivery race (a hang
        failover already answered) or the caller cancelled — stragglers
        must neither overwrite the result nor double-count.  Latency is
        submit-anchored: a request that burned ``shard_timeout_s`` on a
        hung primary reports that wait.
        """
        with self._lock:
            if state.delivered:
                return False
            state.delivered = True
            self._armed.pop(state, None)
        out = state.future
        live = out.set_running_or_notify_cancel()
        now = time.monotonic()
        if not live:
            counter = "cancelled"
        self._count(counter)
        if live and exc is None:
            self._latency.observe(now - state.submitted_at)
        # Root span outcome == the conservation-law term counted.
        state.trace.finish(outcome=counter)
        if live:
            if exc is not None:
                out.set_exception(exc)
            else:
                out.set_result(result)
        return live

    def _answered(self, shard: Shard, dispatched_at: float) -> None:
        """A shard answered a read — the strongest health probe there
        is, whether or not the answer won its delivery race: a shard
        ejected on a false hang (the budget includes queue wait)
        re-admits itself with its next answer, a straggler the watchdog
        already failed over included.

        After an *error* ejection only an attempt dispatched after it is
        evidence, though: a forward that was already computing when its
        host died answers late, and re-admitting on that straggler would
        mark a dead shard healthy until live traffic happened to fault
        on it again.  Such a shard comes back by answering a read
        dispatched later — the ignore-health last-resort pass sends it
        one — or through an operator's ``check_health()``."""
        ejected_at = shard.ejected_at
        if ejected_at is not None and dispatched_at < ejected_at:
            return
        self._readmit(shard)

    # ------------------------------------------------------------------ #
    # Health
    # ------------------------------------------------------------------ #
    def _readmit(self, shard: Shard) -> None:
        """Mark a shard healthy again (probe success, or a served
        answer from the last-resort ignore-health pass)."""
        with self._lock:
            if shard.healthy or self._by_id.get(shard.id) is not shard:
                return            # healthy, or decommissioned for good
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

    def check_health(self) -> list[str]:
        """Probe every ejected shard; re-admit the ones that answer.
        Returns the re-admitted ids.

        Each probe is one real prediction through the shard's own
        front-end.  A unique probe ω defeats the result cache (a cached
        field would mask a still-broken forward path); a shard serving
        no models is trivially healthy.  The probe must be able to
        succeed on a shard that was ejected for being *slow*, not
        broken, so its budget sits well above the hang threshold and it
        jumps any backlog that caused the false ejection.
        """
        budget_s = max(30.0, 4 * (self.config.shard_timeout_s or 0.0))
        with self._lock:
            candidates = [s for s in self.shards if not s.healthy]
        readmitted = []
        for shard in candidates:
            self._count("probes")
            entries = shard.server.registry.entries()
            if entries:
                entry = entries[0]
                with self._lock:
                    self._probe_seq += 1
                    omega = np.full(entry.problem.field.m,
                                    1e-3 * self._probe_seq)
                try:
                    shard.server.predict(entry.name, omega, timeout=budget_s,
                                         priority=2 ** 31)
                except Exception:
                    continue
            self._readmit(shard)
            readmitted.append(shard.id)
        return readmitted

    # ------------------------------------------------------------------ #
    # Permanent loss: decommission a shard, re-replicate its keys
    # ------------------------------------------------------------------ #
    def decommission_shard(self, shard_id: str) -> int:
        """Remove a permanently lost shard and re-replicate its keys.

        The caller declares the host lost; the shard leaves the ring,
        survivors that the new ring assigns its keys get fresh
        registrations (copied from a live holder) *before* the new ring
        swaps in, and teardown is *best effort* on a daemon thread — joining a hung
        server's workers could block forever, and a dead host owes
        nobody a clean shutdown.  Returns the number of (key, shard)
        re-registrations performed.
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
            new_ring = HashRing([s.id for s in self.shards])
            moves = self._reconcile(new_ring)
            self._ring = new_ring
            del self._by_id[shard.id]
            self._count("decommissions")
        threading.Thread(target=shard.server.close, daemon=True).start()
        return moves

    def _reconcile(self, ring: HashRing) -> int:
        """Register every catalogued model onto the replicas the *new*
        ring assigns it, copying the entry from a live holder.

        Called with the fleet lock held, after the lost shard has left
        ``self.shards`` and BEFORE the ring swaps in.  Only live shards
        are copy sources: a decommissioned host is gone, its registry
        unreachable by assumption even though the simulation could still
        read it — so a key whose every holder was lost stays lost.
        Returns the number of (key, shard) registrations performed.
        """
        moves = 0
        for name, version in list(self._catalog.items()):
            holders = {}
            for shard in self.shards:
                try:
                    entry = shard.server.registry.get(name)
                except RegistryError:
                    continue
                if entry.version == version:
                    holders[shard.id] = entry
            if not holders:
                continue   # no surviving holder; nothing to copy from
            source = next(iter(holders.values()))
            for sid in ring.lookup((name, version), n=self._r):
                if sid in holders:
                    continue
                self._by_id[sid].server.registry.register_model(
                    name, source.model, source.problem, path=source.path,
                    meta=source.meta, version=version)
                moves += 1
        self._count("reregistrations", moves)
        return moves

    # Note there is deliberately no prune step after a decommission:
    # shrinking the ring never takes a key away from a survivor (the
    # R-walk only swaps the removed member for the next distinct one).

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
                p50=self._latency.p50, p99=self._latency.p99,
                **self._c)
            live = list(self.shards)
            retired = list(self._retired)
        # Decommissioned shards are summed too: their serving history
        # must not vanish from the fleet totals.
        for shard in live + retired:
            s = shard.server.stats
            merged.requests += s.requests
            merged.cache_hits += shard.server.cache.stats.hits
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
                "cache_hits": shard.server.cache.stats.hits,
                "errors": s.errors,
                "queue_depth": shard.server.queue_depth(),
                "models": list(shard.server.registry.names()),
            }
        return merged

    def __repr__(self) -> str:
        healthy = self.stats.healthy_shards
        return (f"ShardedFleet(shards={len(self.shards)}, "
                f"healthy={healthy}, replicas={self._r}, "
                f"models={list(self.names())})")
