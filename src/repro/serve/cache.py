"""Size-bounded LRU result cache for the prediction server.

Serving workloads repeat: design loops and parameter sweeps re-query the
same ω (or ω within float noise of each other), and a solved full field
is exactly reusable.  Keys are built from the *model version* (so a
reloaded checkpoint never serves stale fields), the *problem signature*
(dimension, resolution, diffusivity family, parameter box) and a
*quantized* ω — two queries within the quantization step share one entry.

The cache is bounded in bytes, not entries: one 3D megavoxel field is
worth thousands of 2D ones, so counting entries would make the bound
meaningless across workloads.

**Disk spill** (``spill_dir``): every admitted entry is also written as
one ``.npz`` file, and a memory miss falls through to disk before
recomputing — so a server restart keeps its hot set.  File names embed
the model version and a digest of the full key: a reloaded (retrained)
checkpoint changes the version, changes every key, and thereby leaves
stale files unreachable (self-invalidation; ``prune_spill`` deletes the
orphans of versions no longer served).

**Spill budget** (``spill_max_bytes``): the disk tier is LRU-bounded
like the memory tier — reads and rewrites refresh a file's recency
(mirrored to its mtime, so the order survives restarts), writes evict
the least-recently-used files until the total fits, and a value larger
than the whole budget is not written at all (admitting it would wipe the
tier just to be evicted next).  ``None`` keeps the pre-budget behavior:
unbounded disk, pruned only by version.

The budget is kept from this instance's own books, so one spill
directory has one writing cache: a sharded fleet gives every shard its
own subdirectory.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
import zipfile
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = ["CacheStats", "LRUCache", "key_digest", "quantize_omega",
           "result_key", "spill_file_name"]


def key_digest(key: tuple) -> str:
    """Stable hex digest of one cache key.

    ``repr`` of the key tuple is stable (shortest-round-trip floats).
    Shared by spill file names and the keyed serving errors, so an
    operator can correlate a rejection in a log line with the exact
    cache/spill entry it names.
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


# Spill recency is persisted via file mtimes (restart re-seeds the LRU
# order from an mtime sort).  A bare ``os.utime(path)`` stamps the
# *current clock*, whose effective resolution on some filesystems is a
# whole second — two files touched inside one tick tie, and the restart
# sort breaks the tie by directory order, i.e. arbitrarily.  Stamping an
# explicit, process-wide strictly-increasing nanosecond count makes the
# persisted order total: later touch ⇒ strictly larger mtime, always.
_touch_lock = threading.Lock()
_last_touch_ns = 0


def _touch_monotonic(path: Path | str) -> None:
    """``os.utime`` with a strictly increasing nanosecond timestamp."""
    global _last_touch_ns
    with _touch_lock:
        _last_touch_ns = max(time.time_ns(), _last_touch_ns + 1)
        ns = _last_touch_ns
    os.utime(path, ns=(ns, ns))


def spill_file_name(key: tuple) -> str:
    """Deterministic npz file name for one cache key.

    The model version prefix keeps stale generations visually — and
    prunably — distinct.
    """
    version = str(key[0]) if key else "v"
    return f"{version}-{key_digest(key)}.npz"


@dataclass
class CacheStats:
    """Cumulative accounting of one :class:`LRUCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    bytes_cached: int = 0
    entries: int = 0
    spill_hits: int = 0
    spill_writes: int = 0
    spill_bytes: int = 0
    spill_evictions: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class LRUCache:
    """Thread-safe least-recently-used cache bounded by total bytes.

    Values are NumPy arrays; stored copies are marked read-only so a
    caller mutating a served result cannot corrupt later cache hits.
    With ``spill_dir`` the cache is two-tiered: memory (byte-bounded LRU)
    over disk (one npz per entry, unbounded, restart-persistent).
    """

    def __init__(self, max_bytes: int = 64 * 1024 * 1024,
                 spill_dir: str | os.PathLike | None = None,
                 spill_max_bytes: int | None = None) -> None:
        self.max_bytes = int(max_bytes)
        self.spill_dir = Path(spill_dir) if spill_dir is not None else None
        self.spill_max_bytes = (int(spill_max_bytes)
                                if spill_max_bytes is not None else None)
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, np.ndarray] = OrderedDict()
        # LRU accounting of the disk tier: file name -> bytes, ordered
        # least- to most-recently used.  Seeded from a directory scan in
        # mtime order so the recency ranking survives restarts (reads
        # mirror their touch to the file's mtime).
        self._spill_files: OrderedDict[str, int] = OrderedDict()
        self.stats = CacheStats()
        if self.spill_dir is not None:
            self.spill_dir.mkdir(parents=True, exist_ok=True)
            # st_mtime_ns, not st_mtime: the float-seconds view rounds
            # away the nanosecond stamps _touch_monotonic writes, which
            # would reintroduce exactly the ties it exists to break.
            for path in sorted(self.spill_dir.glob("*.npz"),
                               key=lambda p: p.stat().st_mtime_ns):
                self._spill_files[path.name] = path.stat().st_size
            self.stats.spill_bytes = sum(self._spill_files.values())
            self._enforce_spill_budget()

    def get(self, key: tuple) -> np.ndarray | None:
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return value
        value = self._load_spilled(key)
        if value is not None:
            with self._lock:
                self.stats.hits += 1
                self.stats.spill_hits += 1
            if value.nbytes <= self.max_bytes:
                # Promote to memory — same admission rule as put(): an
                # oversized entry would evict the whole hot set just to
                # be evicted itself.
                self._admit(key, value)
            return value
        with self._lock:
            self.stats.misses += 1
        return None

    def put(self, key: tuple, value: np.ndarray) -> np.ndarray | None:
        """Admit a result; returns the stored read-only copy, or ``None``
        when the value exceeds the whole memory budget (admitting it
        would just evict everything and then itself be evicted next).
        Oversized values still spill to disk when a spill tier exists."""
        stored = None
        if value.nbytes <= self.max_bytes:
            stored = np.ascontiguousarray(value).copy()
            stored.flags.writeable = False
            self._admit(key, stored)
        self._write_spilled(key, stored if stored is not None else value)
        return stored

    def _admit(self, key: tuple, value: np.ndarray) -> None:
        """Insert a read-only array into the memory tier, evicting LRU."""
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self.stats.bytes_cached -= old.nbytes
            self._entries[key] = value
            self.stats.bytes_cached += value.nbytes
            while self.stats.bytes_cached > self.max_bytes:
                _, dropped = self._entries.popitem(last=False)
                self.stats.bytes_cached -= dropped.nbytes
                self.stats.evictions += 1
            self.stats.entries = len(self._entries)

    # ------------------------------------------------------------------ #
    # Disk tier
    # ------------------------------------------------------------------ #
    def _spill_path(self, key: tuple) -> Path | None:
        if self.spill_dir is None:
            return None
        return self.spill_dir / spill_file_name(key)

    def _write_spilled(self, key: tuple, value: np.ndarray) -> None:
        path = self._spill_path(key)
        if path is None:
            return
        if path.exists():
            # Rewriting an existing entry is a use: refresh its recency.
            self._touch_spill(path)
            return
        if (self.spill_max_bytes is not None
                and value.nbytes > self.spill_max_bytes):
            # Same admission rule as the memory tier: a value larger
            # than the whole budget would wipe the tier just to be
            # evicted itself next.
            return
        # Atomic publish: a concurrent reader must never see a torn
        # file.  The tmp name is writer-unique so two processes/threads
        # racing on one key cannot interleave writes into a shared tmp.
        tmp = path.with_suffix(
            f".{os.getpid()}.{threading.get_ident()}.tmp.npz")
        try:
            np.savez(tmp, value=np.ascontiguousarray(value))
            os.replace(tmp, path)
        except OSError:
            tmp.unlink(missing_ok=True)
            return
        # A fresh write is this entry's first use.
        self._touch_spill(path, write=True)

    def _touch_spill(self, path: Path, write: bool = False) -> None:
        """Move a spill file to most-recently-used (persisted via mtime)
        and (re)count it at its size.  Stamp, stat and count share the
        lock evictions hold: a file evicted meanwhile is never counted
        again, and two writers racing on one key count it once."""
        with self._lock:
            try:
                _touch_monotonic(path)
                size = path.stat().st_size
            except OSError:
                return
            self.stats.spill_writes += write
            # Incremental accounting keeps spill hits O(1).
            old = self._spill_files.pop(path.name, None)
            self._spill_files[path.name] = size
            self.stats.spill_bytes += size - (old or 0)
            self._enforce_spill_budget()

    def _enforce_spill_budget(self) -> None:
        """Evict least-recently-used spill files over budget (lock held)."""
        if self.spill_max_bytes is None or self.spill_dir is None:
            return
        while self.stats.spill_bytes > self.spill_max_bytes:
            name, size = self._spill_files.popitem(last=False)
            (self.spill_dir / name).unlink(missing_ok=True)
            self.stats.spill_bytes -= size
            self.stats.spill_evictions += 1

    def _drop_spill(self, path: Path) -> None:
        """Delete a spill file and uncount it."""
        with self._lock:
            path.unlink(missing_ok=True)
            size = self._spill_files.pop(path.name, None)
            if size is not None:
                self.stats.spill_bytes -= size

    def _load_spilled(self, key: tuple) -> np.ndarray | None:
        path = self._spill_path(key)
        if path is None or not path.exists():
            return None
        value = None
        try:
            # A bare .npy loads as an array, not an archive; a truncated
            # zip raises BadZipFile, an empty file EOFError; a non-npy
            # member loads as bytes.
            data = np.load(path, allow_pickle=False)
            if isinstance(data, np.lib.npyio.NpzFile):
                with data:
                    value = data["value"]
        except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile):
            pass
        if not isinstance(value, np.ndarray):
            # Torn or foreign file: drop it so it cannot shadow recompute.
            self._drop_spill(path)
            return None
        value.flags.writeable = False
        self._touch_spill(path)
        return value

    def prune_spill(self, live_versions) -> int:
        """Delete spilled entries whose model version is no longer served;
        returns the number of files removed."""
        if self.spill_dir is None:
            return 0
        live = {str(v) for v in live_versions}
        removed = 0
        for path in self.spill_dir.glob("*.npz"):
            version = path.name.rsplit("-", 1)[0]
            if version not in live:
                self._drop_spill(path)
                removed += 1
        return removed

    def __contains__(self, key: tuple) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.stats.bytes_cached = 0
            self.stats.entries = 0

    def __repr__(self) -> str:
        s = self.stats
        return (f"LRUCache(entries={len(self)}, "
                f"bytes={s.bytes_cached}/{self.max_bytes}, "
                f"hit_rate={s.hit_rate:.2f})")
