"""Host-fingerprinted persistent record cache.

Host-specific artefacts (which JIT kernel was compiled for which
signature) are only valid on the machine that produced them, so every
persisted record is partitioned under a digest of the performance-relevant
host facts.  :class:`MeasurementCache` owns the mechanics:

* a JSON table on disk, ``{"hosts": {<fingerprint>: {<key>: <record>}}}``,
* an in-memory slice for this host, loaded lazily and saved atomically,
* ``clear(memory_only=True)`` to simulate a process restart.

Its one user is the lazy backend's JIT kernel index
(:mod:`repro.backend.lazy.cjit`), which places the table inside its
(``REPRO_JIT_CACHE``-relocatable) kernel directory.  :func:`default_workers`
is the one CPU count, for the serving executors, the stencil mat-vec and
the data-parallel rank processes; :func:`pin_blas_threads` (applied when
a ``DataParallelTrainer`` is built, and in every process-executor child)
holds numpy's bundled OpenBLAS to one thread, so rank processes do not
oversubscribe the cores and a GEMM's summation order does not depend on
the host's core count.  :func:`hold_one_blas_thread` does the same for
as long as a multi-worker thread executor is open, and
:func:`release_blas_thread` restores the count the first hold found.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import json
import os
import platform
import threading
from pathlib import Path
from typing import Any

import numpy as np

__all__ = ["blas_threads", "default_workers", "host_fingerprint",
           "hold_one_blas_thread", "pin_blas_threads", "release_blas_thread",
           "MeasurementCache"]


def default_workers() -> int:
    """Worker count matching the cores this process may actually use."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


@functools.cache
def _numpy_openblas() -> ctypes.CDLL | None:
    """numpy's bundled OpenBLAS (the copy numpy loaded), or None when
    numpy was built against another BLAS."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*")):
        try:
            lib = ctypes.CDLL(str(path))
            get = lib.scipy_openblas_get_num_threads64_
            put = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return lib
    return None


def blas_threads() -> int | None:
    """Threads numpy's bundled OpenBLAS runs on; None when there is none."""
    lib = _numpy_openblas()
    return None if lib is None else int(lib.scipy_openblas_get_num_threads64_())


# Open holds of hold_one_blas_thread, and the count the first one found.
_HOLD_LOCK = threading.Lock()
_holds = 0
_held_from: int | None = None


def pin_blas_threads() -> bool:
    """Run numpy's bundled OpenBLAS on one thread; True when it now does.

    Parallelism here is across processes and the stencil's row blocks,
    never inside one GEMM: a second BLAS thread bought no speed, spun
    the idle core, and changed the bits of a reduction with the host's
    core count.  The pin is for good: a hold released later keeps it.
    """
    global _held_from
    lib = _numpy_openblas()
    if lib is not None:
        with _HOLD_LOCK:
            lib.scipy_openblas_set_num_threads64_(1)
            if _holds:
                _held_from = 1
    return blas_threads() == 1


def hold_one_blas_thread() -> None:
    """Run OpenBLAS on one thread until the matching
    :func:`release_blas_thread`.  Holds nest; the first saves the count
    it found.  Tile threads are the parallelism: two of them each fanning
    a GEMM over both cores ran slower than one thread alone."""
    global _holds, _held_from
    lib = _numpy_openblas()
    if lib is None:
        return
    with _HOLD_LOCK:
        if not _holds:
            _held_from = int(lib.scipy_openblas_get_num_threads64_())
            lib.scipy_openblas_set_num_threads64_(1)
        _holds += 1


def release_blas_thread() -> None:
    """End one :func:`hold_one_blas_thread`; the last restores the count
    the first found (or keeps a :func:`pin_blas_threads` made since)."""
    global _holds
    lib = _numpy_openblas()
    if lib is None:
        return
    with _HOLD_LOCK:
        _holds -= 1
        if not _holds:
            lib.scipy_openblas_set_num_threads64_(_held_from)


def host_fingerprint() -> str:
    """Stable identity of the measuring environment.

    Measured winners transfer between runs on the same machine but not
    between machines, so persisted tables are partitioned by a digest of
    the performance-relevant host facts.
    """
    facts = (platform.machine(), platform.system(), platform.processor(),
             str(os.cpu_count()), platform.python_version(),
             np.__version__)
    return hashlib.sha1("|".join(facts).encode()).hexdigest()[:12]


class MeasurementCache:
    """A host-partitioned key -> record JSON table with atomic persistence.

    ``default_path`` is where the table lives on disk.
    """

    def __init__(self, default_path: Path) -> None:
        self._path = Path(default_path)
        self._lock = threading.RLock()
        self._host: dict[str, dict] | None = None
        self._dirty = False

    def path(self) -> Path:
        """Where the persisted table lives on disk."""
        return self._path

    def _load(self) -> dict[str, dict]:
        """This host's slice of the persisted table (lock held)."""
        if self._host is None:
            table: dict[str, dict] = {}
            try:
                data = json.loads(self.path().read_text())
                table = data.get("hosts", {}).get(host_fingerprint(), {})
                if not isinstance(table, dict):  # pragma: no cover - corrupt
                    table = {}
            except (OSError, ValueError):
                table = {}
            self._host = table
        return self._host

    def get(self, key: str) -> dict | None:
        with self._lock:
            return self._load().get(key)

    def setdefault(self, key: str, record: dict[str, Any]) -> dict:
        """Insert ``record`` unless ``key`` already has one; returns the
        winning record and persists when an insert happened."""
        with self._lock:
            existing = self._load().setdefault(key, record)
            if existing is record:
                self._dirty = True
        if existing is record:
            self.save()
        return existing

    def snapshot(self) -> dict[str, dict]:
        """Copy of this host's records (key -> record)."""
        with self._lock:
            return dict(self._load())

    def clear(self, memory_only: bool = False) -> None:
        """Drop the in-memory slice (and, unless ``memory_only``, the
        file).  ``memory_only=True`` simulates a process restart."""
        with self._lock:
            self._host = None
            self._dirty = False
            if not memory_only:
                try:
                    self.path().unlink()
                except OSError:
                    pass

    def save(self) -> Path | None:
        """Persist pending records (read-merge-write, atomic replace);
        returns the path written, or ``None`` when nothing changed."""
        with self._lock:
            if not self._dirty or self._host is None:
                return None
            path = self.path()
            try:
                data = json.loads(path.read_text())
                if not isinstance(data, dict):  # pragma: no cover - corrupt
                    data = {}
            except (OSError, ValueError):
                data = {}
            hosts = data.setdefault("hosts", {})
            merged = dict(hosts.get(host_fingerprint(), {}))
            merged.update(self._host)
            hosts[host_fingerprint()] = merged
            data["version"] = 1
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(path.suffix + ".tmp")
            tmp.write_text(json.dumps(data, indent=1, sort_keys=True))
            os.replace(tmp, path)
            self._dirty = False
            return path
