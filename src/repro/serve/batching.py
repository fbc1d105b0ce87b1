"""Dynamic micro-batching: coalesce queued requests into fused forwards.

A single ω query is a (1, 1, *grid) forward; the GEMMs inside are far
from their throughput regime.  Batching B compatible requests into one
(B, 1, *grid) forward amortizes planning, im2col and Python dispatch —
the classic dynamic-batching trade of a little latency (a hold of at
most ``max_wait_ms``, paid only when a companion is due inside it) for
a lot of throughput.

The batcher is policy only: it owns no threads.  A server worker calls
``collect`` to drain one micro-batch and then groups it into fusable
runs (same model version and resolution) with ``group_compatible`` —
coalescing never changes results because eval-mode inference is
per-sample independent (verified by the determinism tests).

Scheduling discipline (the seam PR 2 left open, filled here):

* **Priorities** — :class:`RequestQueue` is a heap, not a FIFO: requests
  dequeue highest ``priority`` first, FIFO within a priority level, so
  a saturated server never head-of-line-blocks an interactive query
  behind a bulk sweep.
* **Deadlines** — a request carrying ``expires_at`` that is already past
  due when drained is handed to the caller's ``on_expired`` hook instead
  of a batch slot; the server fails it with a keyed
  :class:`~repro.serve.errors.DeadlineExceeded` *before* it wastes a
  fused forward.
* **Backpressure** — the queue is byte-cheap but not free: bounding it
  (``RequestQueue(maxsize=...)``) turns overload into synchronous
  ``queue.Full`` at ``put`` time, which the server surfaces as a keyed
  ``ServerOverloaded`` rejection.
* **Deadline-aware hold shrink (EDF)** — ``max_wait_ms`` trades batch
  size for latency under the assumption that every request can afford
  the hold.  A request whose deadline expires *inside* the hold window
  cannot: it would be coalesced straight into ``DeadlineExceeded``.
  ``collect`` therefore shrinks the hold to the earliest ``expires_at``
  among the batch's members — earliest-deadline-first applied to the
  coalescing window — so a tight-deadline request dispatches as soon as
  its slack runs out while relaxed traffic still enjoys the full wait.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .telemetry.trace import NULL_SPAN, NULL_TRACER

__all__ = ["PredictRequest", "RequestQueue", "MicroBatcher"]


@dataclass
class PredictRequest:
    """One queued prediction request."""

    model_name: str
    omega: np.ndarray
    resolution: int
    future: Any  # concurrent.futures.Future
    enqueued_at: float = field(default_factory=time.perf_counter)
    key: tuple | None = None  # cache/dedup key, stamped by submit()
    priority: int = 0         # higher dequeues first under saturation
    deadline_s: float | None = None   # latency budget granted at submit
    expires_at: float | None = None   # absolute perf_counter expiry
    trace: Any = NULL_SPAN    # telemetry context token: the request's
    #                           root span (the null span when untraced)
    trace_queue: Any = NULL_SPAN  # open "queue.wait" child span,
    #                           finished when the request leaves the queue

    def group_key(self) -> tuple:
        """Requests sharing this key may run in one fused forward."""
        return (self.model_name, self.resolution)

    def expired(self, now: float | None = None) -> bool:
        """True when the deadline has passed (never, without one)."""
        if self.expires_at is None:
            return False
        return (time.perf_counter() if now is None else now) > self.expires_at


class RequestQueue(queue.PriorityQueue):
    """Priority-ordered, optionally bounded queue of requests.

    A drop-in for the ``queue.Queue`` the batcher drains — same ``put``/
    ``get``/``task_done``/``join`` surface — but backed by a heap keyed
    ``(-priority, sequence)``: higher priority dequeues first, and the
    monotone sequence number keeps FIFO order (and heap stability) within
    one priority level.  ``maxsize > 0`` bounds pending requests; a
    non-blocking ``put`` on a full queue raises ``queue.Full``, which is
    the backpressure signal the server turns into ``ServerOverloaded``.
    """

    def __init__(self, maxsize: int = 0) -> None:
        super().__init__(maxsize)
        self._seq = itertools.count()

    def put(self, request: PredictRequest, block: bool = True,
            timeout: float | None = None) -> None:
        super().put((-request.priority, next(self._seq), request),
                    block, timeout)

    def get(self, block: bool = True,
            timeout: float | None = None) -> PredictRequest:
        return super().get(block, timeout)[-1]


class MicroBatcher:
    """Coalescing policy over a queue of requests.

    Parameters
    ----------
    max_batch:
        Upper bound on requests fused into one forward.
    max_wait_ms:
        The longest hold of a batch's *first* request for companions,
        paid only while the mean gap between arrivals is at most this.
        0 never holds: a batch is whatever is already queued.
    """

    def __init__(self, max_batch: int = 8, max_wait_ms: float = 2.0) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_wait_ms < 0:
            raise ValueError("max_wait_ms must be >= 0")
        self.max_batch = int(max_batch)
        self.max_wait_ms = float(max_wait_ms)
        # Mean arrival gap (s), from 0 so a fresh batcher holds.  A race
        # between workers only nudges it, so it takes no lock.
        self._mean_gap = 0.0
        self._last_arrival: float | None = None
        self.tracer = NULL_TRACER  # enable_telemetry swaps the real one in

    def _admit(self, request: PredictRequest, batch: list[PredictRequest],
               source: "queue.Queue[PredictRequest]",
               on_expired: Callable[[PredictRequest], None] | None) -> None:
        """Route a drained request to the batch or the expiry hook.

        Expired requests never occupy a batch slot: they are consumed
        here (including the ``task_done`` their ``get`` owes the queue's
        drain accounting) so a saturated queue full of dead requests
        cannot starve the live ones behind them.  Both kinds update the
        mean arrival gap (weight 1/16; an out-of-order stamp is gap 0).
        """
        t, last = request.enqueued_at, self._last_arrival
        if last is not None:
            self._mean_gap += (max(t - last, 0.0) - self._mean_gap) / 16
        self._last_arrival = t if last is None else max(t, last)
        if on_expired is not None and request.expired():
            on_expired(request)
            if hasattr(source, "task_done"):
                source.task_done()
            return
        batch.append(request)

    def collect(self, source: "queue.Queue[PredictRequest]",
                stop: threading.Event | None = None,
                poll_s: float = 0.05,
                on_expired: Callable[[PredictRequest], None] | None = None,
                ) -> list[PredictRequest]:
        """Block for the next live request, then drain companions.

        With a :class:`RequestQueue` source the drain order is priority
        order.  ``on_expired`` receives every past-deadline request
        consumed during the drain (the caller resolves its future); the
        returned batch contains only live requests.  Returns ``[]`` only
        when ``stop`` is set and the queue is empty — the worker's signal
        to exit.

        The hold is ``max_wait_ms`` while the mean arrival gap is at most
        that, else 0; it is deadline-aware: a member whose ``expires_at``
        falls before the ``max_wait_ms`` deadline shrinks the hold to
        that expiry (EDF on the coalescing window), so holding for
        companions can never itself expire a request already drained.
        """
        batch: list[PredictRequest] = []
        while not batch:
            try:
                self._admit(source.get(timeout=poll_s), batch, source,
                            on_expired)
            except queue.Empty:
                if stop is not None and stop.is_set():
                    return []
        # The span starts when the first live member arrives — the
        # coalescing hold is the stage being measured, not the idle
        # wait for traffic to exist at all.
        span = self.tracer.start("batch.collect", parent=batch[0].trace)
        hold = self.max_wait_ms / 1e3
        deadline = time.perf_counter() + (hold if self._mean_gap <= hold
                                          else 0.0)
        while len(batch) < self.max_batch:
            if batch[-1].expires_at is not None:
                # The member drained last is the only one not yet
                # folded into the hold deadline.
                deadline = min(deadline, batch[-1].expires_at)
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                # Deadline passed: take whatever is already queued, but
                # do not wait for more.
                try:
                    self._admit(source.get_nowait(), batch, source,
                                on_expired)
                    continue
                except queue.Empty:
                    break
            try:
                self._admit(source.get(timeout=remaining), batch, source,
                            on_expired)
            except queue.Empty:
                break
        span.finish(size=len(batch))
        return batch

    @staticmethod
    def group_compatible(batch: list[PredictRequest]
                         ) -> list[list[PredictRequest]]:
        """Split a drained batch into fusable runs, preserving order."""
        groups: dict[tuple, list[PredictRequest]] = {}
        order: list[tuple] = []
        for req in batch:
            key = req.group_key()
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(req)
        return [groups[k] for k in order]
