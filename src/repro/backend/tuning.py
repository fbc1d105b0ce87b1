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
(``REPRO_JIT_CACHE``-relocatable) kernel directory.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import threading
from pathlib import Path
from typing import Any

import numpy as np

__all__ = ["host_fingerprint", "MeasurementCache"]


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
