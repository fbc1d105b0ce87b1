"""Size-bounded LRU result cache for the prediction server.

Serving workloads repeat: design loops and parameter sweeps re-query the
same ω (or ω within float noise of each other), and a solved full field
is exactly reusable.  Keys are built from the *model version* (so a
reloaded checkpoint never serves stale fields), the *problem signature*
(dimension, resolution, diffusivity family, parameter box) and a
*quantized* ω — two queries within the quantization step share one entry.

The cache is bounded in bytes, not entries: one 3D megavoxel field is
worth thousands of 2D ones, so counting entries would make the bound
meaningless across workloads.  It lives in memory only: a restarted
server starts cold.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

__all__ = ["CacheStats", "LRUCache", "key_digest", "quantize_omega",
           "result_key"]


def key_digest(key: tuple) -> str:
    """Stable hex digest of one cache key.

    ``repr`` of the key tuple is stable (shortest-round-trip floats).
    The keyed serving errors carry it, so an operator can correlate a
    rejection in a log line with the exact request key it names.
    """
    return hashlib.sha1(repr(key).encode()).hexdigest()[:20]


def quantize_omega(omega: np.ndarray, step: float = 1e-6) -> tuple[float, ...]:
    """Snap ω to a lattice of spacing ``step`` (hashable tuple)."""
    q = np.round(np.asarray(omega, dtype=np.float64) / step) * step
    # Normalize -0.0 so that -1e-9 and +1e-9 collapse to the same key.
    q = q + 0.0
    return tuple(float(v) for v in q)


def result_key(model_version: str, problem_sig: tuple,
               omega: np.ndarray, resolution: int,
               step: float = 1e-6) -> tuple:
    """Canonical cache key for one prediction request."""
    return (model_version, problem_sig, int(resolution),
            quantize_omega(omega, step))


@dataclass
class CacheStats:
    """Cumulative accounting of one :class:`LRUCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    bytes_cached: int = 0
    entries: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class LRUCache:
    """Thread-safe least-recently-used cache bounded by total bytes.

    Values are NumPy arrays; stored copies are marked read-only so a
    caller mutating a served result cannot corrupt later cache hits.
    """

    def __init__(self, max_bytes: int = 64 * 1024 * 1024) -> None:
        self.max_bytes = int(max_bytes)
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, np.ndarray] = OrderedDict()
        self.stats = CacheStats()

    def get(self, key: tuple) -> np.ndarray | None:
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return value

    def put(self, key: tuple, value: np.ndarray) -> np.ndarray | None:
        """Admit a result; returns the stored read-only copy, or ``None``
        when the value exceeds the whole memory budget (admitting it
        would just evict everything and then itself be evicted next)."""
        if value.nbytes > self.max_bytes:
            return None
        stored = np.ascontiguousarray(value).copy()
        stored.flags.writeable = False
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self.stats.bytes_cached -= old.nbytes
            self._entries[key] = stored
            self.stats.bytes_cached += stored.nbytes
            while self.stats.bytes_cached > self.max_bytes:
                _, dropped = self._entries.popitem(last=False)
                self.stats.bytes_cached -= dropped.nbytes
                self.stats.evictions += 1
            self.stats.entries = len(self._entries)
        return stored

    def __contains__(self, key: tuple) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:
        s = self.stats
        return (f"LRUCache(entries={len(self)}, "
                f"bytes={s.bytes_cached}/{self.max_bytes}, "
                f"hit_rate={s.hit_rate:.2f})")
