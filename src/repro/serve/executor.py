"""Pluggable execution backends for the serving worker fleet.

CPython's GIL caps a thread-pool server at roughly one core of Python
work; the conv engines release the GIL inside BLAS but the dispatch,
planning and stitching around them do not.  This module abstracts *where*
a unit of serving compute runs:

* :class:`SerialExecutor` — inline on the calling thread.  Zero overhead,
  the right default for small fields and single-core hosts.
* :class:`ThreadExecutor` — a shared ``ThreadPoolExecutor``.  Cheap
  fan-out that wins whenever tasks spend their time inside GIL-releasing
  BLAS calls (tiled megavoxel forwards do).  With more than one worker
  it holds OpenBLAS at one thread from construction to ``close``: the
  workers are the parallelism, and BLAS threads on top oversubscribed
  the cores.
* :class:`ProcessExecutor` — a ``multiprocessing`` pool.  Full GIL
  escape for CPU-bound fleets.  Each worker re-initialises its array
  backend and dtype policy on startup (``reset_after_fork``): forked
  children must never reuse the parent's backend instances, whose locked
  state does not survive a fork.  Each also runs OpenBLAS on one thread,
  as data-parallel rank processes do.

Task functions submitted to a :class:`ProcessExecutor` must be module
level (picklable); per-worker state such as unpickled models is cached in
the child keyed by content version (see :mod:`repro.serve.tiling`).

``make_executor`` is the single construction point used by
:class:`~repro.serve.server.PredictionServer`, ``repro predict`` and the
benchmarks; it captures the caller's active backend and dtype so workers
replicate the serving configuration exactly.
"""

from __future__ import annotations

import multiprocessing
import threading
from concurrent.futures import ThreadPoolExecutor, as_completed

import numpy as np

from ..backend import reset_after_fork
from ..backend.tuning import (
    default_workers, hold_one_blas_thread, pin_blas_threads,
    release_blas_thread,
)
from .telemetry.trace import NULL_TRACER

__all__ = ["Executor", "SerialExecutor", "ThreadExecutor",
           "ProcessExecutor", "make_executor", "default_workers",
           "EXECUTOR_KINDS"]

EXECUTOR_KINDS = ("serial", "thread", "process")


class Executor:
    """Common surface: ordered ``map``, explicit ``close``, context use."""

    kind = "serial"

    # A server with telemetry enabled binds its tracer here; parallel
    # executors wrap each ``map`` fan-out in an "executor.map" span.
    # The class-level null tracer keeps the default free.
    tracer = NULL_TRACER

    @property
    def workers(self) -> int:
        return 1

    def map(self, fn, items) -> list:
        """Apply ``fn`` to every item; results in input order."""
        raise NotImplementedError

    def _map_span(self, n: int):
        """Open the fan-out span for an ``n``-item map."""
        return self.tracer.start("executor.map", kind=self.kind, items=n,
                                 workers=self.workers)

    def imap_unordered(self, fn, items):
        """Yield ``(index, fn(item))`` pairs in *completion* order.

        ``index`` is the item's position in the input iterable, so a
        caller that needs positional identity (e.g. which tile a result
        belongs to) recovers it regardless of which worker finished
        first.  The serial implementation is lazy and in input order;
        parallel executors submit everything and yield as results land,
        so callers bound what they hand over (the tile engine dispatches
        in waves of ``2 x workers``).
        """
        for i, item in enumerate(items):
            yield i, fn(item)

    def warm(self) -> None:
        """Create worker resources now instead of on first ``map``.

        Callers that are about to spawn compute threads use this to
        uphold the fork-before-threads invariant: a fork-based pool must
        exist before any thread could hold a lock mid-fork.
        """

    def close(self) -> None:
        """Release worker resources (idempotent)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(workers={self.workers})"


class SerialExecutor(Executor):
    """Run every task inline on the calling thread."""

    kind = "serial"

    def map(self, fn, items) -> list:
        return [fn(item) for item in items]


class ThreadExecutor(Executor):
    """Shared thread pool; pool threads run the creator's backend/dtype.

    The array-backend choice is thread-local (see
    :mod:`repro.backend.registry`), so without the initializer a pool
    thread would silently fall back to the process default backend
    instead of the one the caller configured.  With more than one worker
    the executor holds OpenBLAS at one thread until :meth:`close`.
    """

    kind = "thread"

    def __init__(self, workers: int | None = None) -> None:
        self._workers = max(1, int(workers or default_workers()))
        self._backend, self._dtype = _capture_context()
        self._lock = threading.Lock()
        self._pool: ThreadPoolExecutor | None = None
        self._holds_blas = self._workers > 1
        if self._holds_blas:
            hold_one_blas_thread()

    @property
    def workers(self) -> int:
        return self._workers

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self._workers,
                    thread_name_prefix="repro-exec",
                    initializer=_thread_worker_init,
                    initargs=(self._backend, self._dtype))
            return self._pool

    def map(self, fn, items) -> list:
        items = list(items)
        if not items:
            return []
        span = self._map_span(len(items))
        try:
            return list(self._ensure_pool().map(fn, items))
        finally:
            span.finish()

    def imap_unordered(self, fn, items):
        items = list(items)
        if not items:
            return
        pool = self._ensure_pool()
        futures = {pool.submit(fn, item): i for i, item in enumerate(items)}
        try:
            for fut in as_completed(futures):
                yield futures[fut], fut.result()
        finally:
            # A consumer that closes the stream early (or a task that
            # raised) must not leave the queued remainder computing.
            for fut in futures:
                fut.cancel()

    def warm(self) -> None:
        self._ensure_pool()

    def close(self) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
            held, self._holds_blas = self._holds_blas, False
        if pool is not None:
            pool.shutdown(wait=True)
        if held:
            release_blas_thread()


class ProcessExecutor(Executor):
    """``multiprocessing`` pool with per-worker backend re-initialisation
    and OpenBLAS pinned to one thread in every worker.

    The pool is created lazily (spinning up processes is not free) and
    the default start method prefers ``fork`` where available: children
    inherit loaded modules copy-on-write, so startup cost stays low even
    for a large serving process.
    """

    kind = "process"

    def __init__(self, workers: int | None = None,
                 start_method: str | None = None) -> None:
        self._workers = max(1, int(workers or default_workers()))
        self._backend, self._dtype = _capture_context()
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        self._start_method = start_method
        self._lock = threading.Lock()
        self._pool = None

    @property
    def workers(self) -> int:
        return self._workers

    @property
    def start_method(self) -> str:
        return self._start_method

    def _ensure_pool(self):
        with self._lock:
            if self._pool is None:
                ctx = multiprocessing.get_context(self._start_method)
                self._pool = ctx.Pool(
                    processes=self._workers,
                    initializer=_process_worker_init,
                    initargs=(self._backend, self._dtype))
            return self._pool

    def map(self, fn, items) -> list:
        items = list(items)
        if not items:
            return []
        span = self._map_span(len(items))
        try:
            # chunksize=1: serving tasks are coarse (a tile or a fused
            # forward each); load balance beats batched dispatch.
            return self._ensure_pool().map(fn, items, chunksize=1)
        finally:
            span.finish()

    def imap_unordered(self, fn, items):
        items = list(items)
        if not items:
            return
        pool = self._ensure_pool()
        payloads = [(fn, i, item) for i, item in enumerate(items)]
        yield from pool.imap_unordered(_indexed_call, payloads, chunksize=1)

    def warm(self) -> None:
        self._ensure_pool()

    def close(self) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.terminate()
            pool.join()


def make_executor(kind: str, workers: int | None = None) -> Executor:
    """Build an executor by kind: ``serial`` | ``thread`` | ``process``."""
    if kind == "serial":
        return SerialExecutor()
    if kind == "thread":
        return ThreadExecutor(workers)
    if kind == "process":
        return ProcessExecutor(workers)
    raise ValueError(
        f"unknown executor kind {kind!r}; expected one of {EXECUTOR_KINDS}")


def _indexed_call(payload):
    """Module-level shim for the process ``imap_unordered`` path.

    ``fn`` must itself be module level (picklable); the index rides along
    so completion-order results keep their positional identity.
    """
    fn, index, item = payload
    return index, fn(item)


# --------------------------------------------------------------------- #
# Worker initialisation
# --------------------------------------------------------------------- #
def _capture_context() -> tuple[str, str]:
    """The creating thread's (backend name, dtype name)."""
    from ..backend import get_backend, get_default_dtype

    return get_backend().name, np.dtype(get_default_dtype()).name


def _process_worker_init(backend: str, dtype: str) -> None:
    reset_after_fork(backend, dtype)
    pin_blas_threads()


def _thread_worker_init(backend: str, dtype: str) -> None:
    from ..backend import set_backend, set_default_dtype

    set_backend(backend)
    set_default_dtype(dtype)
