"""The prediction server: request queue, worker pool, cache and tiling.

This is the subsystem that turns a trained MGDiffNet checkpoint into a
service (the paper's Sec. 4.3 payoff: amortize one expensive training
run over many cheap ω queries).  A request flows:

    submit(model, ω) ── cache hit? ──> resolved future (no queue)
           │ miss
           ▼
      request queue ──> worker: micro-batch + group ──> fused forward
                                                    │   (tiled when the
                                                    │    grid is huge)
                                                    ▼
                                          cache fill + future results

Front-ends:

* **sync** — ``predict``/``predict_many`` on an unstarted server run the
  same path inline (cache, batching math, tiling) on the caller's
  thread; nothing to start or stop.
* **worker-thread** — ``start()`` spawns N worker threads; ``submit``
  returns a ``Future``; ``predict`` on a running server routes through
  the queue.

The queue is a priority heap with deadlines and backpressure (see
:mod:`repro.serve.batching`): ``submit(..., priority=, deadline_s=)``
orders dequeue under saturation, expires stale requests with a keyed
``DeadlineExceeded`` before they waste a fused forward, and — with
``max_pending`` set — rejects overflow synchronously with a keyed
``ServerOverloaded`` (counted in ``stats.rejected``).

On the calling side of the GIL there is one forward: a fused batch is a
:func:`~repro.serve.tiling.tiled_predict` call, and the untiled field is
its one-tile plan (the tile is the whole grid unless ``config.tile`` or
``tile_threshold_voxels`` says otherwise — bitwise equal to
:func:`repro.core.inference.predict_batch`).  Where the tiles run is
pluggable (:mod:`repro.serve.executor`): ``executor='serial'`` keeps
them inline on the worker thread; ``'thread'`` fans the tiles of a
megavoxel forward across a shared thread pool; ``'process'`` escapes the
GIL entirely — tiled forwards fan their tiles across a process pool, and
an untiled batch is shipped to it whole (only ω crosses the pipe; the
worker synthesises log ν, runs ``predict_batch`` and masks, none of it
under this process's GIL), with the worker threads reduced to
queueing/stitching front-ends.  Identical
requests arriving while a twin is queued attach to the in-flight future
instead of recomputing (``dedup_hits``).
"""

from __future__ import annotations

import pickle
import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field

import numpy as np

from ..core.inference import predict_batch
from .batching import MicroBatcher, PredictRequest, RequestQueue
from .cache import LRUCache, result_key
from .errors import DeadlineExceeded, ServerOverloaded
from .executor import (Executor, check_executor_kind,
                       make_executor)
from .registry import ModelEntry, ModelRegistry
from .telemetry import NULL_SPAN, NULL_TRACER, QuantileSketch
from .tiling import tiled_predict

__all__ = ["ServerConfig", "ServerStats", "PredictionServer"]

# Per-process cache of unpickled (model, problem) pairs inside process-
# pool workers, keyed by registry content version.
_REMOTE_ENTRY_CACHE: dict[str, tuple] = {}


def _predict_batch_remote(payload) -> np.ndarray:
    """Whole fused forward inside a process-pool worker (must pickle)."""
    version, blob, omegas, resolution = payload
    pair = _REMOTE_ENTRY_CACHE.get(version)
    if pair is None:
        pair = _REMOTE_ENTRY_CACHE[version] = pickle.loads(blob)
    return predict_batch(*pair, omegas, resolution=resolution)


@dataclass(frozen=True)
class ServerConfig:
    """Tunables of one :class:`PredictionServer`."""

    max_batch: int = 8
    max_wait_ms: float = 2.0          # longest batch hold, paid only
    #                                   when a companion is due inside it
    workers: int = 1
    cache_bytes: int = 64 * 1024 * 1024
    tile_threshold_voxels: int = 2 ** 21  # tile forwards above ~2M voxels
    tile: int | None = None           # set: force tiling at this tile size
    executor: str = "serial"          # compute layer: serial|thread|process
    max_pending: int = 0              # >0: bound the queue (backpressure)
    default_deadline_s: float | None = None  # latency budget default
    #                                   (<= 0: already spent)

    def __post_init__(self) -> None:
        """Reject a setting no forward could run with, here rather than
        as an error counted on every request.  The executor kind goes
        through its owner's check; ``max_batch`` and ``max_wait_ms`` are
        the batcher's, which the server builds."""
        lowest = dict(workers=1, cache_bytes=0, tile_threshold_voxels=0,
                      max_pending=0)
        if self.tile is not None:
            lowest["tile"] = 1
        for name, low in lowest.items():
            if not getattr(self, name) >= low:
                raise ValueError(f"{name} must be >= {low}, got "
                                 f"{getattr(self, name)!r}")
        check_executor_kind(self.executor)


@dataclass
class ServerStats:
    """Aggregate serving statistics (latencies in seconds).

    ``latency`` sketches every answered request's submit-to-result time;
    p50/p99 read it.  Cache hits are the cache's own count,
    ``server.cache.stats.hits``."""

    requests: int = 0
    dedup_hits: int = 0
    batches: int = 0
    batched_requests: int = 0
    tiled_forwards: int = 0
    errors: int = 0
    rejected: int = 0          # max_pending backpressure rejections
    expired: int = 0           # deadlines missed before a fused forward
    queue_depth: int = 0       # gauge: pending + in-flight at last read
    latency: QuantileSketch = field(
        default_factory=lambda: QuantileSketch("server.latency"))

    @property
    def p50(self) -> float:
        return self.latency.p50

    @property
    def p99(self) -> float:
        return self.latency.p99

    @property
    def mean_batch_size(self) -> float:
        return self.batched_requests / self.batches if self.batches else 0.0


class PredictionServer:
    """Batching, caching inference server over a :class:`ModelRegistry`."""

    def __init__(self, registry: ModelRegistry,
                 config: ServerConfig | None = None) -> None:
        self.registry = registry
        self.config = config or ServerConfig()
        # Span sites call ``self.tracer`` unconditionally: the null
        # tracer until ``enable_telemetry`` swaps in the bundle's (see
        # repro.serve.telemetry).  ``telemetry`` is the bundle handle.
        self.tracer = NULL_TRACER
        self.telemetry = None
        self.cache = LRUCache(self.config.cache_bytes)
        self.stats = ServerStats()
        self._batcher = MicroBatcher(self.config.max_batch,
                                     self.config.max_wait_ms)
        # Priority heap, bounded when max_pending asks for backpressure.
        self._queue = RequestQueue(maxsize=self.config.max_pending)
        self._stop = threading.Event()
        self._workers: list[threading.Thread] = []
        self._stats_lock = threading.Lock()
        self._inflight: dict[tuple, Future] = {}
        self._inflight_lock = threading.Lock()
        self._executor: Executor | None = None
        self._executor_lock = threading.Lock()
        # Version-keyed pickle caches for process executors; guarded by
        # one lock because concurrent workers insert while hot swaps
        # prune (an unlocked iterate-and-delete would be crashy).
        self._blob_lock = threading.Lock()
        self._payload_blobs: dict[str, bytes] = {}  # entry version -> pickle
        self._net_blobs: dict[str, bytes] = {}      # version -> pickled net

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def running(self) -> bool:
        return bool(self._workers)

    def queue_depth(self) -> int:
        """Cheap load gauge: requests pending in the queue plus those a
        worker has drained but not yet resolved.

        ``unfinished_tasks`` is exactly put-count minus
        ``task_done``-count, so a request counts from accepted submit to
        resolution.  The reading is also stamped on
        ``stats.queue_depth`` so stats snapshots carry the gauge.
        """
        with self._queue.mutex:
            depth = self._queue.unfinished_tasks
        self.stats.queue_depth = depth
        return depth

    @property
    def executor(self) -> Executor:
        """The compute executor (created lazily from the config)."""
        with self._executor_lock:
            if self._executor is None:
                self._executor = make_executor(self.config.executor,
                                               self.config.workers)
            return self._executor

    def enable_telemetry(self, telemetry,
                         register_views: bool = True) -> None:
        """Attach a :class:`~repro.serve.telemetry.Telemetry` bundle.

        Threads the tracer through the batcher and the tile engine and —
        with ``register_views`` (the standalone-server default) —
        registers this server's :class:`ServerStats` fields and its
        cache's hit count as ``stats.server.*`` read-time views on the
        registry.  A fleet enabling telemetry on
        its shards passes ``register_views=False``: per-shard numbers
        would collide on one name, and the fleet's merged stats already
        cover them.
        """
        self.telemetry = telemetry
        self.tracer = self._batcher.tracer = telemetry.tracer
        if register_views:
            m = telemetry.metrics
            s = self.stats
            for name in ("requests", "dedup_hits", "batches",
                         "batched_requests", "tiled_forwards", "errors",
                         "rejected", "expired", "queue_depth", "p50",
                         "p99", "mean_batch_size"):
                m.register_view(f"stats.server.{name}",
                                lambda s=s, n=name: getattr(s, n))
            m.register_view("stats.server.cache_hits",
                            lambda c=self.cache.stats: c.hits)

    def start(self) -> "PredictionServer":
        """Spawn the worker-thread pool (idempotent)."""
        if self.running:
            return self
        # Materialize the executor before the worker threads exist: a
        # fork-based process pool must not be created from a process
        # already running compute threads (locks may be held mid-fork).
        self.executor.warm()
        self._stop.clear()
        for i in range(self.config.workers):
            t = threading.Thread(target=self._worker_loop,
                                 name=f"repro-serve-{i}", daemon=True)
            t.start()
            self._workers.append(t)
        return self

    def stop(self, drain: bool = True) -> None:
        """Stop the workers; with ``drain`` pending requests finish first.

        The compute executor survives a stop so explicit
        ``stop()``/``start()`` cycles stay cheap; :meth:`close` (and the
        context-manager exit) tears it down.  A closed server remains
        usable — the executor is rebuilt lazily on the next use.
        """
        if not self.running:
            return
        if drain:
            self._queue.join()
        self._stop.set()
        for t in self._workers:
            t.join()
        self._workers.clear()
        # Undrained stop abandons queued requests: purge their in-flight
        # entries so a later identical submit computes fresh instead of
        # attaching to a future no worker will ever resolve.
        with self._inflight_lock:
            for key in [k for k, f in self._inflight.items()
                        if not f.done()]:
                del self._inflight[key]

    def close(self) -> None:
        """Stop the fleet and release the compute executor's workers."""
        self.stop()
        with self._executor_lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.close()

    def __enter__(self) -> "PredictionServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        # Full teardown: leaving a `with` block must not leak a live
        # process pool.  Later calls lazily rebuild the executor.
        self.close()

    # ------------------------------------------------------------------ #
    # Front-ends
    # ------------------------------------------------------------------ #
    def submit(self, model_name: str, omega: np.ndarray,
               resolution: int | None = None, *,
               priority: int | None = None,
               deadline_s: float | None = None,
               trace_parent=None) -> Future:
        """Queue one prediction; returns a Future of the (full-field)
        NumPy array.  Cache hits resolve immediately without queueing.

        ``priority`` (default 0) orders the request queue: under
        saturation higher priorities dequeue first.
        ``deadline_s`` (default ``config.default_deadline_s``) grants a
        latency budget from now; a request still queued when it runs out
        fails with a keyed :class:`DeadlineExceeded` instead of wasting a
        fused forward.  When ``config.max_pending`` bounds the queue, an
        overflowing submit raises :class:`ServerOverloaded` synchronously
        (and counts it in ``stats.rejected``); a client that keeps at
        most ``max_pending`` requests outstanding never sees it.

        Served fields are read-only (hits and misses alike — they may be
        shared with the cache); copy before mutating."""
        entry = self.registry.get(model_name)
        r = int(resolution or entry.problem.resolution)
        omega = np.asarray(omega, dtype=np.float64).reshape(-1)
        if omega.size != entry.problem.field.m:
            # Reject here: a wrong-arity ω must never reach a worker,
            # where it would poison the fused np.stack of its whole group.
            raise ValueError(
                f"model {model_name!r} expects omega of length "
                f"{entry.problem.field.m}, got {omega.size}")
        if not np.isfinite(omega).all():
            # A NaN key never equals itself: it would miss the cache on
            # every call and cache a non-finite field each time.
            raise ValueError(
                f"model {model_name!r} needs a finite omega, got "
                f"{omega.tolist()}")
        if deadline_s is None:
            deadline_s = self.config.default_deadline_s
        t0 = time.perf_counter()
        request = PredictRequest(
            model_name=model_name, omega=omega, resolution=r, future=Future(),
            enqueued_at=t0, key=self._key(entry, omega, r),
            priority=int(priority or 0), deadline_s=deadline_s,
            expires_at=(t0 + deadline_s if deadline_s is not None else None))
        # ``trace_parent`` is the caller's context token (a fleet
        # attempt span, typically); None starts a fresh root, which is
        # where trace sampling applies.
        span = request.trace = self.tracer.start(
            "server.request", parent=trace_parent, model=model_name)

        future, key = request.future, request.key
        cached = self.cache.get(key)
        if cached is not None:
            with self._stats_lock:
                self.stats.requests += 1
                self.stats.latency.observe(
                    time.perf_counter() - request.enqueued_at)
            future.set_result(cached)
            span.finish(outcome="cache_hit")
            return future

        # In-flight dedup: a twin already queued (or computing) resolves
        # this request too — attach instead of recomputing.
        with self._inflight_lock:
            twin = self._inflight.get(key)
            if twin is None:
                self._inflight[key] = future
        if twin is not None:
            with self._stats_lock:
                self.stats.requests += 1
                self.stats.dedup_hits += 1
            span.finish(outcome="dedup")
            return twin

        if self.running:
            request.trace_queue = self.tracer.start("queue.wait", parent=span)
            try:
                self._queue.put(request, block=False)
            except queue.Full:
                # Backpressure: reject synchronously before the request
                # consumes any server state (its dedup slot included —
                # a later identical submit must compute, not attach to
                # a future nothing will resolve).  A rejection is not an
                # accepted request: it counts in ``rejected``, not in
                # ``requests``, so refused submits don't inflate QPS.
                self._drop_inflight(request)
                with self._stats_lock:
                    self.stats.rejected += 1
                exc = ServerOverloaded(
                    model_name, key, pending=self._queue.qsize(),
                    max_pending=self.config.max_pending)
                # A twin may have attached between the in-flight insert
                # above and this rejection; failing the future (not just
                # raising) guarantees no attached caller waits forever.
                if future.set_running_or_notify_cancel():
                    future.set_exception(exc)
                request.trace_queue.finish()
                span.finish(outcome="rejected")
                raise exc from None
            with self._stats_lock:
                self.stats.requests += 1
            return future
        with self._stats_lock:
            self.stats.requests += 1
        if request.expired():
            # Sync front-end honors a zero/negative budget the same way
            # the queue would, so deadline semantics don't depend on
            # whether the server is running.
            self._expire_request(request)
        else:
            # Sync front-end: same path, caller's thread.
            self._process_group(entry, [request])
        return future

    def predict(self, model_name: str, omega: np.ndarray,
                resolution: int | None = None,
                timeout: float | None = None, *,
                priority: int | None = None,
                deadline_s: float | None = None) -> np.ndarray:
        """Blocking single prediction (sync front-end)."""
        return self.submit(model_name, omega, resolution, priority=priority,
                           deadline_s=deadline_s).result(timeout)

    def predict_many(self, model_name: str, omegas: np.ndarray,
                     resolution: int | None = None,
                     timeout: float | None = None, *,
                     priority: int | None = None,
                     deadline_s: float | None = None) -> np.ndarray:
        """Submit a batch of ω and gather results, shape (B, *grid)."""
        omegas = np.atleast_2d(np.asarray(omegas, dtype=np.float64))
        futures = [self.submit(model_name, w, resolution, priority=priority,
                               deadline_s=deadline_s)
                   for w in omegas]
        return np.stack([f.result(timeout) for f in futures])

    # ------------------------------------------------------------------ #
    # Worker internals
    # ------------------------------------------------------------------ #
    def _worker_loop(self) -> None:
        while True:
            batch = self._batcher.collect(self._queue, stop=self._stop,
                                          on_expired=self._expire_request)
            if not batch:
                return
            try:
                for group in MicroBatcher.group_compatible(batch):
                    try:
                        entry = self.registry.get(group[0].model_name)
                    except Exception as exc:
                        # Model unregistered between submit and dispatch.
                        with self._stats_lock:
                            self.stats.errors += len(group)
                        for req in group:
                            claimed = self._claim(req)
                            self._drop_inflight(req)
                            if claimed:
                                req.future.set_exception(exc)
                        continue
                    self._process_group(entry, group)
            finally:
                for _ in batch:
                    self._queue.task_done()

    def _claim(self, req: PredictRequest) -> bool:
        """Claim a request's future for resolution; ``False`` when the
        client already cancelled it while it was queued.

        ``Future.cancel()`` is public — a client may drop a queued
        request with it — after which ``set_result``/``set_exception``
        would raise InvalidStateError and kill the worker thread.  Claiming marks the
        future RUNNING, so later cancels fail cleanly instead; a request
        whose claim fails is dropped without compute, its dedup slot
        released so a resubmit computes fresh.
        """
        if req.future.set_running_or_notify_cancel():
            return True
        self._drop_inflight(req)
        req.trace_queue.finish()
        req.trace.finish(outcome="cancelled")
        return False

    def _expire_request(self, req: PredictRequest) -> None:
        """Fail a past-deadline request with a keyed error (no compute)."""
        with self._stats_lock:
            self.stats.expired += 1
        if self._claim(req):
            req.future.set_exception(DeadlineExceeded(
                req.model_name, req.key, deadline_s=req.deadline_s or 0.0,
                waited_s=time.perf_counter() - req.enqueued_at))
        self._drop_inflight(req)
        req.trace_queue.finish()
        req.trace.finish(outcome="expired")

    def _drop_inflight(self, req: PredictRequest) -> None:
        if req.key is None:
            return
        with self._inflight_lock:
            self._inflight.pop(req.key, None)

    def _process_group(self, entry: ModelEntry,
                       group: list[PredictRequest]) -> None:
        """One fused forward for compatible requests; resolve futures."""
        # Claim every future first: requests cancelled while queued are
        # dropped here, before they cost a slot in the fused stack.
        group = [req for req in group if self._claim(req)]
        if not group:
            return
        r = group[0].resolution
        for req in group:
            req.trace_queue.finish()
        # The fused forward hangs under the first traced member.
        fspan = self.tracer.start(
            "server.forward", batch=len(group),
            parent=next((req.trace for req in group if req.trace),
                        NULL_SPAN))
        try:
            omegas = np.stack([req.omega for req in group])
            fields = self._forward(entry, omegas, r, trace=fspan)
        except Exception as exc:
            fspan.finish(error=type(exc).__name__)
            with self._stats_lock:
                self.stats.errors += len(group)
            for req in group:
                self._drop_inflight(req)
                req.future.set_exception(exc)
                req.trace.finish(outcome="error")
            return
        fspan.finish()
        now = time.perf_counter()
        with self._stats_lock:
            self.stats.batches += 1
            self.stats.batched_requests += len(group)
            for req in group:
                self.stats.latency.observe(now - req.enqueued_at)
        for req, u in zip(group, fields):
            key = req.key if req.key is not None \
                else self._key(entry, req.omega, r)
            stored = self.cache.put(key, u)
            if stored is None:
                # Not admitted (cache disabled / oversized field): keep
                # the served-results-are-immutable contract anyway so
                # callers behave identically on miss and replay.
                u.flags.writeable = False
                stored = u
            # Fill the cache before dropping the in-flight entry: a twin
            # arriving in between hits one of the two, never neither.
            self._drop_inflight(req)
            req.future.set_result(stored)
            req.trace.finish(outcome="served")

    def _forward(self, entry: ModelEntry, omegas: np.ndarray,
                 resolution: int, trace=NULL_SPAN) -> np.ndarray:
        """Fused forward on the configured executor: one
        :func:`tiled_predict` call, whose tile is the whole grid — the
        one-tile plan *is* the untiled forward — unless an explicit tile
        size is configured or the grid exceeds the voxel threshold; only
        those forwards count as ``tiled_forwards`` and hang per-tile
        spans under ``trace`` (the forward span).

        The one measured exception: an untiled batch on a process
        executor goes to the pool whole, so only ω crosses the pipe and
        the worker synthesises log ν, runs the net and masks.  Sending
        the one-tile plan's input field instead does that work on this
        thread, under the GIL all shards of a fleet share: server CPU
        per forward 92 → 187 ms, +50 MB server RSS at 64³ B=8
        (CHANGES.md, PR 20) — a trade, not a copy."""
        executor = self.executor
        tiled = (self.config.tile is not None
                 or resolution ** entry.problem.ndim
                 > self.config.tile_threshold_voxels)
        if executor.kind == "process" and not tiled:
            payload = (entry.version,
                       self._blob(self._payload_blobs, entry,
                                  (entry.model, entry.problem)),
                       omegas, resolution)
            return executor.map(_predict_batch_remote, [payload])[0]
        tile = None
        if tiled:
            with self._stats_lock:
                self.stats.tiled_forwards += 1
            tile = self._tile_size(entry, resolution)
        return tiled_predict(entry.model, entry.problem, omegas,
                             resolution=resolution, tile=tile,
                             executor=executor, net_ref=self._net_ref(entry),
                             tracer=self.tracer if tiled else NULL_TRACER,
                             trace_parent=trace)

    def _net_ref(self, entry: ModelEntry) -> tuple[str, bytes] | None:
        """``(version, pickled net)`` for a process executor's tile
        tasks; ``None`` on the others, which share the live model."""
        if self.executor.kind != "process":
            return None
        return entry.version, self._blob(self._net_blobs, entry,
                                         entry.model.net)

    def _blob(self, cache: dict[str, bytes], entry: ModelEntry,
              part) -> bytes:
        """Pickled ``part`` of ``entry`` for process workers, cached in
        ``cache`` per content version so a long-running server
        serializes each model once instead of re-pickling per forward."""
        # Serialize under the lock: a check-then-act window would let
        # concurrent workers each build a model-sized blob after a hot
        # swap.  Holding the lock through a (rare) pickle is cheaper
        # than N transient copies of a large model.
        with self._blob_lock:
            blob = cache.get(entry.version)
            if blob is None:
                blob = cache[entry.version] = pickle.dumps(part)
                # Versions only change on a hot swap, so pruning the
                # blobs of versions the registry no longer serves runs
                # once per new version — without it a long-running
                # server leaks one model-sized blob per retrain.
                live = {e.version for e in self.registry.entries()}
                for blobs in (self._payload_blobs, self._net_blobs):
                    for version in [v for v in blobs if v not in live]:
                        del blobs[version]
        return blob

    def _tile_size(self, entry: ModelEntry, resolution: int) -> int:
        """Tile size for the tile engine, whose halo is the network's."""
        multiple = 2 ** entry.model.net.depth
        tile = self.config.tile
        if tile is None:
            # Aim each tile's core at ~the threshold volume so the padded
            # forward stays within the same memory envelope.
            target = max(multiple, int(round(
                self.config.tile_threshold_voxels
                ** (1.0 / entry.problem.ndim))))
            tile = min(resolution, (target // multiple) * multiple)
        return tile

    def _key(self, entry: ModelEntry, omega: np.ndarray,
             resolution: int) -> tuple:
        return result_key(entry.version, entry.problem_signature(), omega,
                          resolution)

    def __repr__(self) -> str:
        s = self.stats
        return (f"PredictionServer(models={list(self.registry.names())}, "
                f"running={self.running}, requests={s.requests}, "
                f"cache_hits={self.cache.stats.hits}, batches={s.batches})")
