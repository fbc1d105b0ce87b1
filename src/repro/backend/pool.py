"""One scratch arena per thread for the conv engine.

Megavoxel training spends a surprising fraction of its time in
``malloc``/page-faulting freshly allocated NumPy buffers that live for one
conv call and die.  :class:`BufferPool` keeps one arena per thread
(:meth:`BufferPool.arena`): the conv engine carves all the scratch of a
call from one span of bytes.  The arena grows to the largest call its
thread has made, so what the pool keeps is one buffer per thread, as
large as the largest call, however many layer shapes have run.

Usage contract: an arena is *uninitialised* (like ``np.empty``), and no
view of it may outlive its ``with`` block.

The pool is bounded: an arena that would park beyond ``max_bytes`` is
dropped (the GC reclaims it).  An arena dies with its thread, and its
bytes leave the count.
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

    ``bytes_recycled`` totals the bytes of every arena hit (allocation
    traffic the pool absorbed); ``bytes_pooled`` counts the parked
    arenas; ``high_water_bytes`` is the largest ``bytes_pooled`` ever
    parked — the number to size ``max_bytes`` from.
    """

    hits: int = 0
    misses: int = 0
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
    ``None`` while a call holds it.  The list is also the pool's entry
    for the thread, until the finalizer that runs when the thread ends
    takes it out of the registry and its arena off the count."""

    __slots__ = ("parked", "__weakref__")

    def __init__(self) -> None:
        self.parked: list[np.ndarray | None] = [None]


class BufferPool:
    """One scratch arena per thread.

    Parameters
    ----------
    max_bytes:
        Cap on the total bytes parked in arenas (default 512 MiB).
    """

    def __init__(self, max_bytes: int = 512 * 1024 * 1024) -> None:
        self.max_bytes = int(max_bytes)
        self._lock = threading.Lock()
        self._local = threading.local()
        # Every live thread's parked list, by id of its slot.  Held
        # strongly, so a dying thread's arena stays in view (and in reach
        # of ``clear``) until its finalizer takes it off the count.
        self._parked: dict[int, list[np.ndarray | None]] = {}
        self.stats = PoolStats()

    def _slot(self) -> _Slot:
        slot = getattr(self._local, "slot", None)
        if slot is None:
            slot = self._local.slot = _Slot()
            with self._lock:
                self._parked[id(slot)] = slot.parked
            # A weak pool reference: a dropped pool must not live on in
            # the finalizer registry with its arenas.
            weakref.finalize(slot, _retire, weakref.ref(self), id(slot))
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
        """Drop every thread's parked arena (stats are kept)."""
        with self._lock:
            for parked in self._parked.values():
                parked[0] = None
            self.stats.bytes_pooled = 0

    def __repr__(self) -> str:
        s = self.stats
        return (f"BufferPool(hits={s.hits}, misses={s.misses}, "
                f"pooled={s.bytes_pooled >> 20} MiB)")


def _retire(pool_ref, key: int) -> None:
    """A thread ended: its entry leaves its pool, and its parked arena
    the count.  (The finalizer runs before the slot's memory is freed,
    so no new slot can take ``key`` first.)"""
    pool = pool_ref()
    if pool is None:
        return
    with pool._lock:
        arena = pool._parked.pop(key)[0]
        if arena is not None:
            pool.stats.bytes_pooled -= arena.nbytes
