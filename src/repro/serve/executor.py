"""Pluggable execution backends for the serving worker fleet.

CPython's GIL caps a thread-pool server at roughly one core of Python
work; the conv engines release the GIL inside BLAS but the dispatch,
planning and stitching around them do not.  This module abstracts *where*
a unit of serving compute runs:

* :class:`Executor` itself — inline on the calling thread (kind
  ``serial``).  Zero overhead, the right default for small fields and
  single-core hosts.
* :class:`ThreadExecutor` — a shared ``ThreadPoolExecutor``.  Cheap
  fan-out that wins whenever tasks spend their time inside GIL-releasing
  BLAS calls (tiled megavoxel forwards do).  With more than one worker
  it holds OpenBLAS at one thread from construction to ``close``: the
  workers are the parallelism, and BLAS threads on top oversubscribed
  the cores.
* :class:`ProcessExecutor` — forked worker processes.  Full GIL
  escape for CPU-bound fleets; a worker that dies fails the call with
  ``BrokenProcessPool`` instead of hanging it.  Each worker
  re-initialises its array backend and dtype policy on startup
  (``reset_after_fork``): forked children must never reuse the parent's
  backend instances, whose locked state does not survive a fork.  Each
  also runs OpenBLAS on one thread, as data-parallel rank processes do.

Every executor has one ordered ``map``, on the base class, built on its
``imap_unordered``.  An executor opens no span: a fan-out belongs to its
caller's trace, and the tile engine opens its "executor.map" span under
the request's.

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
from concurrent.futures import (BrokenExecutor, ProcessPoolExecutor,
                                ThreadPoolExecutor, as_completed)

import numpy as np

from ..backend import reset_after_fork
from ..backend.tuning import (
    default_workers, hold_one_blas_thread, pin_blas_threads,
    release_blas_thread,
)

__all__ = ["Executor", "ThreadExecutor", "ProcessExecutor", "make_executor",
           "default_workers", "EXECUTOR_KINDS"]

EXECUTOR_KINDS = ("serial", "thread", "process")


class Executor:
    """Common surface: ordered ``map``, explicit ``close``, context use.
    An ``Executor`` itself runs every task inline on the calling thread."""

    kind = "serial"

    @property
    def workers(self) -> int:
        return 1

    def map(self, fn, items) -> list:
        """Apply ``fn`` to every item; results in input order."""
        items = list(items)
        out = [None] * len(items)
        for i, result in self.imap_unordered(fn, items):
            out[i] = result
        return out

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


class _PoolExecutor(Executor):
    """A lazily built ``concurrent.futures`` pool whose workers run the
    creator's backend and dtype.

    ``imap_unordered`` (and so ``map``) submits every item, yields as
    results land and cancels what is left when the caller stops or a
    task raises.
    A pool that breaks (a process worker died) is shut down and dropped:
    the call raises ``BrokenExecutor`` and the next call builds a fresh
    pool.  The two subclasses differ only in the pool they build.
    """

    def __init__(self, workers: int | None = None) -> None:
        self._workers = max(1, int(workers or default_workers()))
        self._backend, self._dtype = _capture_context()
        self._lock = threading.Lock()
        self._pool = None

    @property
    def workers(self) -> int:
        return self._workers

    def _new_pool(self):
        raise NotImplementedError

    def _ensure_pool(self):
        with self._lock:
            if self._pool is None:
                self._pool = self._new_pool()
            return self._pool

    def imap_unordered(self, fn, items):
        items = list(items)
        if not items:
            return
        pool = self._ensure_pool()
        futures = {}
        try:
            for i, item in enumerate(items):
                futures[pool.submit(fn, item)] = i
            for fut in as_completed(futures):
                yield futures[fut], fut.result()
        except BrokenExecutor:
            with self._lock:
                if self._pool is pool:
                    self._pool = None
            pool.shutdown(wait=True)
            raise
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
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)


class ThreadExecutor(_PoolExecutor):
    """Shared thread pool; pool threads run the creator's backend/dtype.

    The array-backend choice is thread-local (see
    :mod:`repro.backend.registry`), so without the initializer a pool
    thread would silently fall back to the process default backend
    instead of the one the caller configured.  With more than one worker
    the executor holds OpenBLAS at one thread until :meth:`close`.
    """

    kind = "thread"

    def __init__(self, workers: int | None = None) -> None:
        super().__init__(workers)
        self._holds_blas = self._workers > 1
        if self._holds_blas:
            hold_one_blas_thread()

    def _new_pool(self) -> ThreadPoolExecutor:
        return ThreadPoolExecutor(
            max_workers=self._workers, thread_name_prefix="repro-exec",
            initializer=_thread_worker_init,
            initargs=(self._backend, self._dtype))

    def close(self) -> None:
        super().close()
        with self._lock:
            held, self._holds_blas = self._holds_blas, False
        if held:
            release_blas_thread()


class ProcessExecutor(_PoolExecutor):
    """Forked worker processes with per-worker backend re-initialisation
    and OpenBLAS pinned to one thread in every worker.

    The pool is created lazily (spinning up processes is not free) and
    forks every worker at once when it is built: children inherit loaded
    modules copy-on-write, so startup cost stays low even for a large
    serving process, and ``warm`` forks them before any serving thread
    exists.
    """

    kind = "process"

    def _new_pool(self) -> ProcessPoolExecutor:
        pool = ProcessPoolExecutor(
            max_workers=self._workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_process_worker_init,
            initargs=(self._backend, self._dtype))
        # A fork-context pool forks all its workers on the first submit.
        pool.submit(int).result()
        return pool


def check_executor_kind(kind: str) -> None:
    """Reject a ``kind`` that names no executor."""
    if kind not in EXECUTOR_KINDS:
        raise ValueError(
            f"unknown executor kind {kind!r}; expected one of {EXECUTOR_KINDS}")


def make_executor(kind: str, workers: int | None = None) -> Executor:
    """Build an executor by kind: ``serial`` | ``thread`` | ``process``."""
    check_executor_kind(kind)
    if kind == "serial":
        return Executor()
    if kind == "thread":
        return ThreadExecutor(workers)
    return ProcessExecutor(workers)


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
