"""Guard: the serving stack keeps exactly what a workload runs.

Three serving features had no ``bench/`` metric that needed them: the
result cache's npz disk spill tier (with its byte budget, version
pruning and per-shard spill directories), per-worker array-backend
pinning (``ServerConfig.backend`` and the ``backend=``/``dtype=``
overrides on the executors), and the fleet's *modelled* interconnect (a
``SimulatedCommunicator`` charged two ``send`` hops per attempt through
a cost model).  ``serve_fleet2d`` builds a fleet with a memory cache and
the serial executor and sets none of them, so they were deleted.

Two more went when hang failover moved into the fleet: the
``await_result`` drain helper (the watchdog heals every fleet future,
so no caller needs one) and the storm replay (``serve/replay.py``:
scenarios, traces, event logs, scripted chaos and its harness), which
no workload ran and ``tests/serve/test_fleet_sim.py``'s state machine
replaced.

The cache is the byte-bounded memory LRU; pools still run their
creator's backend and dtype; the fleet measures what it serves and
models nothing.  The deleted names may not appear anywhere under
``src/repro/serve``, prose included; ``serve/`` imports nothing from
``repro.distributed``; the deleted config and stats fields and keyword
overrides stay gone; and ``repro serve`` rejects the three flags that
set them.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
import re
from pathlib import Path

import pytest

from repro.cli import build_parser
from repro.distributed.comm import CommLog, SimulatedCommunicator
from repro.serve import (
    CacheStats, FleetConfig, FleetStats, LRUCache, ModelEntry,
    ProcessExecutor, ServerConfig, ThreadExecutor, make_executor,
)

SERVE = Path(__file__).resolve().parents[2] / "src" / "repro" / "serve"

# In any text under src/repro/serve (code, strings, comments, docstrings).
BANNED_SERVED = {
    "spill_dir": r"\bspill_dir\b",
    "spill_max_bytes": r"\bspill_max_bytes\b",
    "cache_dir": r"\bcache_dir\b",
    "prune_spill": r"\bprune_spill\b",
    "spill_file_name": r"\bspill_file_name\b",
    "time_model": r"\btime_model\b",
    "send_calls": r"\bsend_calls\b",
    "virtual_comm_seconds": r"\bvirtual_comm_seconds\b",
    "ServerConfig.backend": r"\b(?:ServerConfig|config)\.backend\b",
    # The drain helper and the storm replay.
    "await_result": r"\bawait_result\b",
    "ReplayHarness": r"\bReplayHarness\b",
    "Scenario": r"\bScenario\b",
    "ShardChaos": r"\bShardChaos\b",
    "TenantSpec": r"\bTenantSpec\b",
    "build_trace": r"\bbuild_trace\b",
    "event_log": r"\bevent_log\b",
    "serve.replay": r"\bserve\.replay\b|from \.replay\b",
}
# Dataclass fields that held the deleted features' settings and counts.
DELETED_FIELDS = [
    (ServerConfig, "backend"), (ServerConfig, "cache_dir"),
    (ServerConfig, "spill_max_bytes"), (FleetConfig, "time_model"),
    (FleetStats, "send_calls"), (FleetStats, "send_bytes"),
    (FleetStats, "virtual_comm_seconds"), (CacheStats, "spill_hits"),
    (CacheStats, "spill_writes"), (CacheStats, "spill_bytes"),
    (CacheStats, "spill_evictions"), (ModelEntry, "dtype"),
    (ModelEntry, "backend"), (CommLog, "send_calls"),
    (CommLog, "send_bytes"),
]
DELETED_FLAGS = {"--cache-dir": "/tmp/spill", "--spill-mb": "1",
                 "--backend": "lazy"}


def _served_features(source: str) -> list[str]:
    """Lines of one module naming a deleted serving feature."""
    return [f"{line}: {name}"
            for line, text in enumerate(source.splitlines(), 1)
            for name, pattern in BANNED_SERVED.items()
            if re.search(pattern, text)]


def _distributed_imports(source: str) -> list[str]:
    """Imports of one serve module that reach into repro.distributed."""
    bad = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            names = [module] + [f"{module}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        if any(re.search(r"(?:^|\.)distributed\b", n) for n in names):
            bad.append(f"{node.lineno}: {names[0]}")
    return bad


def _serve_modules():
    return [(str(path.relative_to(SERVE)), path.read_text())
            for path in sorted(SERVE.rglob("*.py"))]


@pytest.mark.parametrize("name", sorted(BANNED_SERVED))
def test_deleted_serving_feature_stays_deleted(name: str) -> None:
    bad = [f"{module}:{hit}" for module, source in _serve_modules()
           for hit in _served_features(source) if hit.endswith(f": {name}")]
    assert not bad, (
        "a deleted serving feature is growing back — the cache is the "
        "memory LRU, pools run their creator's backend, and the fleet "
        "models no interconnect:\n  " + "\n  ".join(bad))


def test_serve_imports_nothing_from_distributed() -> None:
    bad = [f"{module}:{hit}" for module, source in _serve_modules()
           for hit in _distributed_imports(source)]
    bad += [f"{module}: {m.group(0)}" for module, source in _serve_modules()
            for m in re.finditer(r"repro\.distributed|\.\.distributed",
                                 source)]
    assert not bad, (
        "serve/ reaches into repro.distributed again — the fleet "
        "charges nothing to a communicator:\n  " + "\n  ".join(bad))


@pytest.mark.parametrize("cls,name", DELETED_FIELDS,
                         ids=[f"{c.__name__}.{n}" for c, n in DELETED_FIELDS])
def test_deleted_field_stays_deleted(cls, name: str) -> None:
    assert name not in {f.name for f in dataclasses.fields(cls)}


@pytest.mark.parametrize("factory", [make_executor, ThreadExecutor,
                                     ProcessExecutor],
                         ids=["make_executor", "ThreadExecutor",
                              "ProcessExecutor"])
def test_executors_take_no_backend_or_dtype_override(factory) -> None:
    params = inspect.signature(factory).parameters
    assert not {"backend", "dtype"} & set(params)


def test_cache_takes_only_a_byte_budget() -> None:
    assert list(inspect.signature(LRUCache).parameters) == ["max_bytes"]


def test_communicator_has_no_point_to_point_send() -> None:
    # The fleet was its only caller; the DP collectives stay.
    assert not hasattr(SimulatedCommunicator, "send")
    assert {"allreduce", "broadcast", "allgather", "barrier"} <= set(
        dir(SimulatedCommunicator))


@pytest.mark.parametrize("flag", sorted(DELETED_FLAGS))
def test_serve_parser_rejects_deleted_flag(flag: str) -> None:
    argv = ["serve", "--checkpoint", "x.npz"]
    build_parser().parse_args(argv)             # the rest of argv parses
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv + [flag, DELETED_FLAGS[flag]])


# One source line per name the guard must flag.
SERVED_IDIOMS = {
    "spill_dir": "cache = LRUCache(max_bytes, spill_dir=path)\n",
    "spill_max_bytes": "    spill_max_bytes: int | None = None\n",
    "cache_dir": "cfg = replace(cfg, cache_dir=str(root / shard_id))\n",
    "prune_spill": "removed = fleet.prune_spill()\n",
    "spill_file_name": "path = root / spill_file_name(key)\n",
    "time_model": "    time_model: Callable[[int, int], float] | None\n",
    "send_calls": "merged.send_calls = log.send_calls\n",
    "virtual_comm_seconds": "# charged to virtual_comm_seconds\n",
    "ServerConfig.backend": "set_backend(self.config.backend)\n",
    "await_result": "u = fleet.await_result(fleet.submit(name, omega))\n",
    "ReplayHarness": "report = ReplayHarness(fleet, scenario).run()\n",
    "Scenario": "scenario = Scenario(name='storm', seed=7)\n",
    "ShardChaos": "chaos = ShardChaos(shard)\n",
    "TenantSpec": "tenants = (TenantSpec('bulk', weight=2.0),)\n",
    "build_trace": "events = build_trace(scenario)\n",
    "event_log": "log = event_log(events)\n",
    "serve.replay": "from repro.serve.replay import VirtualClock\n",
}


@pytest.mark.parametrize("idiom", sorted(SERVED_IDIOMS))
def test_guard_catches_each_deleted_name(idiom: str) -> None:
    """The guard flags every name it lists, prose included."""
    assert _served_features(SERVED_IDIOMS[idiom]) == [f"1: {idiom}"]


def test_guard_allows_the_vocabulary_that_stays() -> None:
    """The memory budget, the executors' creator capture, the backend
    module, a process child's re-initialisation, the watchdog's expiry
    and a replayed request set are not banned."""
    assert _served_features(
        "cache = LRUCache(self.config.cache_bytes)\n"
        "self._backend, self._dtype = _capture_context()\n"
        "from ..backend import reset_after_fork\n"
        "initargs=(self._backend, self._dtype)\n"
        "# .numpy() realizes the fused forward under the lazy backend.\n"
        "fleet.expire_hung(time.monotonic())  # the watchdog's one call\n"
        "# replay the request set (a second pass hits the cache)\n"
    ) == []


@pytest.mark.parametrize("line,hit", [
    ("from ..distributed.comm import SimulatedCommunicator\n",
     "1: ..distributed.comm"),
    ("import repro.distributed.ring\n", "1: repro.distributed.ring"),
    ("from .. import distributed\n", "1: .."),
], ids=["relative", "absolute", "package"])
def test_import_guard_catches_each_spelling(line: str, hit: str) -> None:
    assert _distributed_imports(line) == [hit]
