"""Model registry: named, versioned, validated serving entries.

A registry turns checkpoints on disk into live serving entries.  Each
entry pins the model together with its :class:`PoissonProblem` template
and a content *version* (a hash of the parameter bytes) that keys the
result cache — reloading a retrained checkpoint under the same name
changes the version and thereby invalidates every cached field
automatically.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from ..core.checkpoint import (CheckpointError, load_checkpoint,
                               read_checkpoint_meta)
from ..core.mgdiffnet import MGDiffNet
from ..core.problem import PoissonProblem

__all__ = ["RegistryError", "ModelEntry", "ModelRegistry", "state_version"]

_ARCH_KEYS = ("ndim", "base_filters", "depth", "resolution")


class RegistryError(RuntimeError):
    """A checkpoint could not be registered (bad path, metadata or state)."""


def state_version(model) -> str:
    """Content hash of the model parameters (cache-key component)."""
    digest = hashlib.sha1()
    for name, value in sorted(model.state_dict().items()):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(value).tobytes())
    return digest.hexdigest()[:12]


@dataclass
class ModelEntry:
    """One servable model: network + problem template + provenance."""

    name: str
    model: MGDiffNet
    problem: PoissonProblem
    version: str
    path: Path | None = None
    meta: dict[str, Any] = field(default_factory=dict)

    def problem_signature(self) -> tuple:
        """Hashable identity of the PDE family this model was trained on."""
        p = self.problem
        return (p.ndim, p.resolution, tuple(p.field.a), tuple(p.omega_range))

    def __repr__(self) -> str:
        src = self.path.name if self.path else "<in-memory>"
        return (f"ModelEntry({self.name!r}, version={self.version}, "
                f"{self.problem.ndim}d r={self.problem.resolution}, "
                f"from {src})")


class ModelRegistry:
    """Thread-safe name -> :class:`ModelEntry` map for the server.

    ``load`` reconstructs the architecture from checkpoint metadata
    (``ndim``/``base_filters``/``depth``/``resolution`` as written by
    ``repro train``), restores the weights, smoke-tests one forward pass
    at the smallest legal resolution, and computes the content version.
    Any failure is surfaced as :class:`RegistryError` carrying the
    checkpoint path.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: dict[str, ModelEntry] = {}

    # ------------------------------------------------------------------ #
    def load(self, name: str, path: str | Path,
             validate: bool = True) -> ModelEntry:
        """Load a checkpoint written by ``repro train`` under ``name``."""
        path = Path(path)
        if not path.exists():
            raise RegistryError(f"checkpoint {path} does not exist")
        try:
            meta = read_checkpoint_meta(path)
        except (OSError, ValueError) as exc:
            raise RegistryError(f"checkpoint {path} is not readable: {exc}"
                                ) from exc
        absent = [k for k in _ARCH_KEYS if k not in meta]
        if absent:
            raise RegistryError(
                f"checkpoint {path} lacks architecture metadata {absent}; "
                "re-save it with repro train --checkpoint (which records "
                "ndim/base_filters/depth/resolution)")
        model = MGDiffNet(ndim=int(meta["ndim"]),
                          base_filters=int(meta["base_filters"]),
                          depth=int(meta["depth"]), rng=0)
        try:
            load_checkpoint(path, model)
        except CheckpointError as exc:
            raise RegistryError(str(exc)) from exc
        problem = PoissonProblem(int(meta["ndim"]), int(meta["resolution"]))
        entry = self._make_entry(name, model, problem, path, meta)
        if validate:
            # Validate *before* registering: a checkpoint that fails its
            # smoke test must never be servable.
            self._smoke_test(entry)
        with self._lock:
            self._entries[name] = entry
        return entry

    def register_model(self, name: str, model: MGDiffNet,
                       problem: PoissonProblem, path: Path | None = None,
                       meta: dict | None = None,
                       version: str | None = None) -> ModelEntry:
        """Register an in-memory model (tests, benchmarks, hot swaps).

        ``version`` lets a caller that already hashed the state dict
        (the fleet hashes once to route, then registers on R replicas)
        skip recomputing it; ``None`` hashes here.
        """
        entry = self._make_entry(name, model, problem, path, meta, version)
        with self._lock:
            self._entries[name] = entry
        return entry

    @staticmethod
    def _make_entry(name: str, model: MGDiffNet, problem: PoissonProblem,
                    path: Path | None, meta: dict | None,
                    version: str | None = None) -> ModelEntry:
        # Serving entries are pinned to eval mode: concurrent server
        # workers share the model, and the inference helpers' transient
        # eval()/train(was_training) toggles are only race-free when
        # `training` is already (and stays) False — otherwise one
        # worker's restore could flip BatchNorm to training mode mid-
        # forward in another, corrupting running statistics.
        model.eval()
        return ModelEntry(
            name=name, model=model, problem=problem,
            version=version or state_version(model), path=path,
            meta=dict(meta or {}))

    @staticmethod
    def _smoke_test(entry: ModelEntry) -> None:
        """One tiny forward pass: catches broken weights before serving."""
        r = max(entry.model.min_resolution, 8)
        omega = np.zeros(entry.problem.field.m)
        try:
            u = entry.model.predict(entry.problem, omega, resolution=r)
        except Exception as exc:  # pragma: no cover - defensive
            raise RegistryError(
                f"checkpoint {entry.path}: validation forward pass failed "
                f"at r={r}: {exc}") from exc
        if not np.all(np.isfinite(u)):
            raise RegistryError(
                f"checkpoint {entry.path}: validation forward pass "
                f"produced non-finite values")

    # ------------------------------------------------------------------ #
    def get(self, name: str) -> ModelEntry:
        with self._lock:
            try:
                return self._entries[name]
            except KeyError:
                known = sorted(self._entries)
                raise RegistryError(
                    f"no model named {name!r} registered; available: "
                    f"{known}") from None

    def names(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._entries))

    def entries(self) -> tuple[ModelEntry, ...]:
        """Snapshot of all entries, name-sorted (fleet probes / pruning)."""
        with self._lock:
            return tuple(self._entries[name]
                         for name in sorted(self._entries))

    def unregister(self, name: str) -> None:
        with self._lock:
            self._entries.pop(name, None)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:
        return f"ModelRegistry({list(self.names())})"
