"""Asyncio front-end over the prediction server.

The worker-thread server speaks ``concurrent.futures.Future`` — the
right currency for thread clients, the wrong one for an event loop: a
coroutine that calls ``future.result()`` blocks its whole loop.  This
module is the bridge (ROADMAP "Async/streaming front-end"):
:class:`AsyncPredictionServer` wraps each submitted future into an
awaitable tied to the running loop, so thousands of outstanding ω
queries cost one coroutine each instead of one thread each — the shape
of traffic the paper's Sec. 4.3 amortization argument assumes, and the
queueing discipline an outer simulation loop (DNN-MG style) needs to
mix interactive and bulk requests on one fleet.

The facade adds **no second scheduler**: priorities, deadlines and
backpressure are enforced by the server's own queue
(:mod:`repro.serve.batching`), so sync and async clients of one server
compete under exactly the same policy.  Rejections surface naturally:
``await`` raises :class:`~repro.serve.errors.DeadlineExceeded` for
expired requests, and ``submit`` raises
:class:`~repro.serve.errors.ServerOverloaded` synchronously when
``max_pending`` overflows — shed or retry with backoff in the client.
:meth:`AsyncPredictionServer.predict` does the latter when the back-end
carries a retry policy: it is the one ``await``-ing twin of the
synchronous driver, :func:`repro.serve.resilience.retry_call`.

Quickstart::

    server = PredictionServer(registry, ServerConfig(max_pending=256))
    async with AsyncPredictionServer(server) as aserver:
        u = await aserver.predict("m", omega, priority=5, deadline_s=0.5)
        many = await aserver.predict_many("m", omegas)   # gathers a lane
"""

from __future__ import annotations

import asyncio
from typing import TYPE_CHECKING

import numpy as np

from .server import PredictionServer

if TYPE_CHECKING:  # avoid a runtime import cycle with .fleet
    from .fleet import ShardedFleet

__all__ = ["AsyncPredictionServer"]


class AsyncPredictionServer:
    """Awaitable facade over one :class:`PredictionServer` — or one
    :class:`~repro.serve.fleet.ShardedFleet`.

    Owns no threads and no queue of its own — every call delegates to
    the wrapped back-end's ``submit`` and converts the returned
    ``concurrent.futures.Future`` into an ``asyncio`` future on the
    running loop.  Lifecycle: ``async with`` starts the back-end's
    worker fleet on entry and closes it (workers *and* compute
    executors) on exit, off-loop so a process-pool teardown cannot
    stall the event loop.  A back-end started by other means can be
    wrapped and used directly; ``start``/``close`` are then the
    caller's business.

    The fleet case is what makes the facade *shard-aware* without a
    second scheduler: routing, replica failover and health accounting
    all happen inside ``ShardedFleet.submit`` before the future is
    wrapped, so async clients get consistent-hash sharding for free —
    a faulted shard resolves the awaitable with the replica's answer,
    and only ``FleetUnavailable`` (every replica down) surfaces.  Hang
    faults are covered too: when the fleet has a ``shard_timeout_s``,
    the awaitable re-waits in budget-sized slices and calls the fleet's
    non-blocking ``hang_failover`` between them, so a shard that
    neither answers nor errors is ejected from the event loop exactly
    as it would be on the blocking path.
    """

    def __init__(self, server: "PredictionServer | ShardedFleet") -> None:
        self.server = server

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    async def __aenter__(self) -> "AsyncPredictionServer":
        # start() warms the compute executor (possibly forking a process
        # pool) — real work, so keep it off the loop.
        await asyncio.get_running_loop().run_in_executor(
            None, self.server.start)
        return self

    async def __aexit__(self, *exc) -> None:
        await asyncio.get_running_loop().run_in_executor(
            None, self.server.close)

    # ------------------------------------------------------------------ #
    # Awaitable front-end
    # ------------------------------------------------------------------ #
    def submit(self, model_name: str, omega: np.ndarray,
               resolution: int | None = None, *,
               priority: int | None = None,
               deadline_s: float | None = None,
               tenant: str | None = None) -> "asyncio.Future":
        """Queue one prediction; returns an awaitable of the full field.

        Must be called with a running event loop.  Cache hits come back
        already resolved; queue overflow (``max_pending``) raises
        :class:`ServerOverloaded` here, synchronously, per-tenant quota
        exhaustion raises :class:`TenantThrottled` likewise, and bad
        requests (wrong ω arity, unknown model) raise exactly as on the
        sync path — backpressure and validation must not hide behind an
        ``await``.
        """
        future = self.server.submit(model_name, omega, resolution,
                                    priority=priority, deadline_s=deadline_s,
                                    tenant=tenant)
        wrapped = asyncio.wrap_future(future)
        hang_failover = getattr(self.server, "hang_failover", None)
        budget = getattr(getattr(self.server, "config", None),
                         "shard_timeout_s", None)
        if hang_failover is None or budget is None:
            return wrapped
        return asyncio.ensure_future(
            self._guard_hangs(future, wrapped, hang_failover, budget))

    @staticmethod
    async def _guard_hangs(future, wrapped: "asyncio.Future",
                           hang_failover, budget: float):
        """Await a fleet future in ``shard_timeout_s`` slices, giving
        the fleet a chance to eject a hung shard between waits.

        ``hang_failover`` is non-blocking (eject + re-dispatch), so the
        event loop never stalls; the shield keeps a sliced wait from
        cancelling the underlying server future.  Terminates because a
        failover either answers or eventually exhausts the replica set,
        which resolves the future with ``FleetUnavailable``.

        A *client* cancellation (the caller's ``wait_for`` lapsing, a
        ``gather`` sibling failing) must still shed the request: the
        shield protects only the sliced waits, so on cancellation the
        underlying future is cancelled explicitly — same semantics as
        the unguarded ``wrap_future`` path.
        """
        while True:
            try:
                return await asyncio.wait_for(asyncio.shield(wrapped),
                                              budget)
            # asyncio.TimeoutError only merged into the builtin in 3.11.
            except (TimeoutError, asyncio.TimeoutError):
                if wrapped.done():
                    # A *stored* timeout (DeadlineExceeded) or an answer
                    # that landed in the race window — surface it as-is.
                    return await wrapped
                hang_failover(future)
            except asyncio.CancelledError:
                # Late resolutions must not log "exception was never
                # retrieved" after the client walked away.
                wrapped.add_done_callback(
                    lambda f: f.cancelled() or f.exception())
                wrapped.cancel()
                raise

    async def predict(self, model_name: str, omega: np.ndarray,
                      resolution: int | None = None, *,
                      priority: int | None = None,
                      deadline_s: float | None = None,
                      tenant: str | None = None) -> np.ndarray:
        """One awaited prediction (async counterpart of ``predict``).

        The ``await``-ing twin of :func:`repro.serve.resilience.
        retry_call`: with a retry policy on the wrapped back-end
        (``fleet.retry``) each failed attempt is put to ``policy.plan``
        — same calls, same order as the blocking driver — and a granted
        backoff is awaited with ``asyncio.sleep`` so the loop keeps
        spinning.  Each retry is a fresh, individually conserved submit.
        """
        policy = getattr(self.server, "retry", None)
        n = 0
        while True:
            try:
                return await self.submit(
                    model_name, omega, resolution, priority=priority,
                    deadline_s=deadline_s, tenant=tenant)
            except Exception as exc:   # CancelledError passes through
                delay = None if policy is None else policy.plan(exc, n)
                if delay is None:
                    raise
                n += 1
                self.server.note_retry(exc, delay)
                if delay > 0:
                    await asyncio.sleep(delay)

    async def stream(self, model_name: str, omega: np.ndarray,
                     resolution: int | None = None, *,
                     priority: int | None = None,
                     deadline_s: float | None = None,
                     tenant: str | None = None,
                     buffer_tiles: int = 2):
        """Async iterator of ``(tile_index, core_slices, core)`` records.

        The asyncio face of streaming tiled inference::

            async for i, sl, core in aserver.stream("m", omega):
                out[sl] = core          # progressive assembly

        Each record is pulled off-loop (``run_in_executor``), so tile
        compute and buffer waits never block the event loop.  The
        per-stream buffer is bounded (``buffer_tiles``): a coroutine
        that consumes slowly backpressures the producing worker instead
        of accumulating tiles.  Backend errors — per-tile
        :class:`~repro.serve.errors.DeadlineExceeded` (carrying
        ``tiles_delivered``), ``ServerOverloaded``, fleet verdicts —
        surface through the iterator.  Exiting the ``async for`` early
        closes the stream and releases the producer.
        """
        loop = asyncio.get_running_loop()
        # A fleet streams with mid-stream failover; a bare server with
        # submit_stream.  Both return an iterator of tile records.
        open_stream = getattr(self.server, "stream", None) \
            or self.server.submit_stream
        source = await loop.run_in_executor(None, lambda: open_stream(
            model_name, omega, resolution, priority=priority,
            deadline_s=deadline_s, tenant=tenant,
            buffer_tiles=buffer_tiles))
        it = iter(source)
        done = object()   # StopIteration cannot cross run_in_executor

        def _next():
            try:
                return next(it)
            except StopIteration:
                return done

        try:
            while True:
                record = await loop.run_in_executor(None, _next)
                if record is done:
                    return
                yield record
        finally:
            close = getattr(source, "close", None)
            if close is not None:
                await loop.run_in_executor(None, close)

    async def predict_many(self, model_name: str, omegas: np.ndarray,
                           resolution: int | None = None, *,
                           priority: int | None = None,
                           deadline_s: float | None = None,
                           tenant: str | None = None) -> np.ndarray:
        """Submit a lane of ω concurrently and gather, shape (B, *grid)."""
        omegas = np.atleast_2d(np.asarray(omegas, dtype=np.float64))
        fields = await asyncio.gather(*[
            self.submit(model_name, w, resolution, priority=priority,
                        deadline_s=deadline_s, tenant=tenant)
            for w in omegas])
        return np.stack(fields)

    def __repr__(self) -> str:
        return f"AsyncPredictionServer({self.server!r})"
