"""Pooled buffer allocator for hot-loop scratch arrays.

Megavoxel training spends a surprising fraction of its time in
``malloc``/page-faulting freshly allocated NumPy buffers that live for one
conv call and die.  :class:`BufferPool` recycles them two ways:

* **Free lists** keyed by (shape, dtype), for buffers whose shape recurs
  (the tile engine's block copy, the ring all-reduce's work rows).
* **One scratch arena per thread** (:meth:`BufferPool.arena`), for the
  conv engine, whose every call carves all its scratch from one span of
  bytes.  The arena grows to the largest call its thread has made, so
  what the engine keeps is one buffer per thread, as large as the largest
  call, however many layer shapes have run.

Usage contract:

* ``acquire`` returns an *uninitialised* buffer (like ``np.empty``); call
  sites must fully overwrite it.
* ``release`` hands a buffer back.  Only release arrays that own their
  memory and that no live view aliases — the pool will hand the same
  memory to the next ``acquire``.
* Never release an array you return to a caller (or a view of one), and
  let no view of an arena outlive its ``with`` block.

The pool is bounded: what would park beyond ``max_bytes`` is dropped (the
GC reclaims it), so it cannot grow without limit on pathological shape
sequences.  An arena dies with its thread, and its bytes leave the count.
"""

from __future__ import annotations

import threading
import weakref
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

__all__ = ["BufferPool", "PoolStats"]


@dataclass
class PoolStats:
    """Cumulative accounting of one :class:`BufferPool`.

    ``bytes_recycled`` totals the bytes of every pool hit (allocation
    traffic the pool absorbed); ``bytes_pooled`` counts what is parked,
    free lists and idle arenas alike; ``high_water_bytes`` is the largest
    ``bytes_pooled`` ever parked — the number to size ``max_bytes``
    from.  Both are surfaced by the autograd profiler report.
    """

    hits: int = 0
    misses: int = 0
    releases: int = 0
    evictions: int = 0
    bytes_pooled: int = 0
    bytes_recycled: int = 0
    high_water_bytes: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def snapshot(self) -> "PoolStats":
        """Point-in-time copy (for delta accounting across a region)."""
        return PoolStats(**vars(self))


ARENA_ALIGN = 4096   # arenas are allocated in whole pages


class _Slot:
    """Where one thread parks its arena: ``parked[0]`` is the arena, or
    ``None`` while a call holds it.  The list is shared with the
    finalizer that takes a parked arena off the count when the thread
    ends."""

    __slots__ = ("parked", "__weakref__")

    def __init__(self) -> None:
        self.parked: list[np.ndarray | None] = [None]


class BufferPool:
    """Free lists keyed by (shape, dtype), plus one arena per thread.

    Parameters
    ----------
    max_bytes:
        Cap on the total bytes parked in free lists and arenas (default
        512 MiB).
    enabled:
        When False, ``acquire`` and ``arena`` always allocate and nothing
        is parked — handy for debugging aliasing suspicions.
    """

    def __init__(self, max_bytes: int = 512 * 1024 * 1024,
                 enabled: bool = True) -> None:
        self.max_bytes = int(max_bytes)
        self.enabled = bool(enabled)
        self._lock = threading.Lock()
        self._free: dict[tuple[tuple[int, ...], str], list[np.ndarray]] = {}
        self._local = threading.local()
        self._slots: weakref.WeakSet[_Slot] = weakref.WeakSet()
        self.stats = PoolStats()

    # ------------------------------------------------------------------ #
    @staticmethod
    def _key(shape: tuple[int, ...], dtype) -> tuple[tuple[int, ...], str]:
        return (tuple(int(s) for s in shape), np.dtype(dtype).str)

    def acquire(self, shape: tuple[int, ...], dtype=np.float32) -> np.ndarray:
        """Return an uninitialised array of the requested shape/dtype."""
        key = self._key(shape, dtype)
        if self.enabled:
            with self._lock:
                bucket = self._free.get(key)
                if bucket:
                    arr = bucket.pop()
                    self.stats.hits += 1
                    self.stats.bytes_recycled += arr.nbytes
                    self.stats.bytes_pooled -= arr.nbytes
                    return arr
                self.stats.misses += 1
        return np.empty(key[0], dtype=np.dtype(key[1]))

    def zeros(self, shape: tuple[int, ...], dtype=np.float32) -> np.ndarray:
        """Pooled equivalent of ``np.zeros``."""
        arr = self.acquire(shape, dtype)
        arr.fill(0)
        return arr

    def release(self, arr: np.ndarray) -> None:
        """Return a buffer to the pool (drops it when over capacity)."""
        with self._lock:
            self.stats.releases += 1
            if not isinstance(arr, np.ndarray):
                # Graph-node wrappers (the lazy backend's LazyArray)
                # expose an already-realized buffer for pooling; pending
                # nodes are dropped rather than forced.
                getbuf = getattr(arr, "_pool_buffer", None)
                arr = getbuf() if getbuf is not None else None
            if not self.enabled or not isinstance(arr, np.ndarray):
                return
            if (arr.base is not None or not arr.flags.owndata
                    or not arr.flags.c_contiguous):
                # Views don't own memory (pooling them would alias live
                # data), and non-C-contiguous buffers break callers that
                # reshape pooled memory in place.
                self.stats.evictions += 1
                return
            if self.stats.bytes_pooled + arr.nbytes > self.max_bytes:
                self.stats.evictions += 1
                return
            self._free.setdefault(self._key(arr.shape, arr.dtype), []).append(arr)
            self.stats.bytes_pooled += arr.nbytes
            self.stats.high_water_bytes = max(self.stats.high_water_bytes,
                                              self.stats.bytes_pooled)

    # ------------------------------------------------------------------ #
    def _slot(self) -> _Slot:
        slot = getattr(self._local, "slot", None)
        if slot is None:
            slot = self._local.slot = _Slot()
            with self._lock:
                self._slots.add(slot)
            # A weak pool reference: a dropped pool must not live on in
            # the finalizer registry with its arenas.
            weakref.finalize(slot, _retire, weakref.ref(self), slot.parked)
        return slot

    @contextmanager
    def arena(self, nbytes: int):
        """Yield ``nbytes`` of this thread's arena: an uninitialised 1-D
        ``uint8`` array to carve typed scratch from (``.view(dtype)``).

        Reuse is a hit.  A miss drops the arena it outgrew and allocates
        one of ``nbytes`` rounded up to whole pages; on exit the arena
        parks again unless that would pass ``max_bytes``.  The arena is
        out of its slot while the block runs, so a nested call on the
        same thread gets an arena of its own (the larger one is kept)."""
        nbytes = int(nbytes)
        if not self.enabled:
            yield np.empty(nbytes, np.uint8)
            return
        slot = self._slot()
        with self._lock:
            arena, slot.parked[0] = slot.parked[0], None
            if arena is not None:
                self.stats.bytes_pooled -= arena.nbytes
                if arena.nbytes < nbytes:
                    arena = None
            if arena is None:
                self.stats.misses += 1
            else:
                self.stats.hits += 1
                self.stats.bytes_recycled += nbytes
        if arena is None:
            arena = np.empty(-(-max(nbytes, 1) // ARENA_ALIGN) * ARENA_ALIGN,
                             np.uint8)
        try:
            yield arena[:nbytes]
        finally:
            self._park(slot, arena)

    def _park(self, slot: _Slot, arena: np.ndarray) -> None:
        with self._lock:
            parked = slot.parked[0]
            if parked is not None:      # a nested call parked first
                self.stats.evictions += 1
                if parked.nbytes >= arena.nbytes:
                    return
                self.stats.bytes_pooled -= parked.nbytes
                slot.parked[0] = None
            if self.stats.bytes_pooled + arena.nbytes > self.max_bytes:
                self.stats.evictions += 1
                return
            slot.parked[0] = arena
            self.stats.bytes_pooled += arena.nbytes
            self.stats.high_water_bytes = max(self.stats.high_water_bytes,
                                              self.stats.bytes_pooled)

    def clear(self) -> None:
        """Drop every pooled buffer, every thread's arena included (stats
        are kept)."""
        with self._lock:
            self._free.clear()
            for slot in self._slots:
                slot.parked[0] = None
            self.stats.bytes_pooled = 0

    def __repr__(self) -> str:
        s = self.stats
        return (f"BufferPool(hits={s.hits}, misses={s.misses}, "
                f"pooled={s.bytes_pooled >> 20} MiB, enabled={self.enabled})")


def _retire(pool_ref, parked: list) -> None:
    """A thread ended: its parked arena leaves its pool's count."""
    pool = pool_ref()
    if pool is None:
        return
    with pool._lock:
        arena, parked[0] = parked[0], None
        if arena is not None:
            pool.stats.bytes_pooled -= arena.nbytes
