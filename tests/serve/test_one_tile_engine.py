"""Guard: tiled inference has one engine, the level-wise sweeps.

``serve/tiling.py`` runs the U-Net level by level: one function,
``_run_stage``, runs a stage on a padded block, and both sweeps (through
the one ``sweep`` loop) and the process-task entry point call it.  The
engine it replaced — the whole network re-run under a receptive-field
halo on every tile, ``net(Tensor(buf))`` inside the tile loop, the halo
from the hand-derived ``4 * 2**depth - 3 + 2 * n_ref`` — was measured
(README "Engine kill table", ``docs/pr22_level_tiling.md``) and deleted;
this walks the module's AST and fails where it would grow back.

The same holds package-wide for two second implementations nothing
selected: the stride-1 slab engine (``distributed/model_parallel.py``),
which the tile sweeps cover along with stride-2 sampling and skips, and
the cross-process spill ledger, a second set of books for a disk tier
the cache no longer has.  Their names may not come back
anywhere in ``src/repro``, and the block extractor the tile engine cuts
halos with has one definition, in ``serve/tiling.py``.

Likewise for three fleet features that no benchmark metric needed:
power-of-two-choices read spreading, per-tenant admission, and the
queue-depth autoscaler with the elastic ``add_shard``/``retire_shard``
it drove.  Their names, and ``tenant`` as a parameter, keyword, field,
slot or attribute, may not come back anywhere in ``src/repro``.

And for the second request path: every served read is one ``submit`` →
queue → fused forward → ``Future``.  The streaming front-ends
(``submit_stream``/``TileStream``, the fleet's mid-stream resume), the
asyncio facade (``repro.serve.aio``) and priority aging had no benchmark
metric and were deleted; their names may not come back in
``src/repro``.  The tile engine's own generator,
``stream_tiled_predict``, is the library stream and stays.

And for the two resilience policies no benchmark metric needed: hedged
reads (a timer thread racing backup attempts) and the per-(model,
shard) circuit breaker, with the install/uninstall wrappers that set
them on the fleet.  Their names, the ``--hedge`` /
``--breaker-*`` flags, and any identifier or token string containing
``hedge`` or ``breaker`` may not come back in ``src/repro``.

And for the control plane: a background thread that ticked a health
prober (backoff-scheduled probes, optional decommission) and stamped
SLO gauges.  No benchmark built it, and its only caller ran it with the
defaults, which never decommission.  The fleet heals through the
answers it serves, its ignore-health last pass and an operator's
``check_health()``, the one probe path.  The ``serve/control/`` package,
its names, the per-shard ``probe_shard``, the ``Gauge`` instrument, the
``--control`` flag and the ``stats.control.*`` views may not appear
anywhere in ``src/repro``, prose included.

And for client retry, the last resilience seam: fired by no fault script
the repo has, and the CLI's one use of it, backing off from its own
queue overflow, is replaced by a client window inside the queue bound.
Every read heals through the fleet's failover, and the fleet has no
seam left: ``ShardedFleet.__init__`` sets no public attribute beyond
its config, tracer, telemetry handle and shard list.
``serve/resilience.py``, its names, ``fleet.retry`` with ``note_retry``
and the ``stats.retry.*`` views, and the ``--retries`` /
``--retry-budget`` flags may not appear anywhere in ``src/repro``, prose
included.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[2] / "src" / "repro"
TILING = PACKAGE / "serve" / "tiling.py"

BANNED_NAMES = {
    "_forward_tile": "the whole-network tile forward",
    "_run_tile_task": "the whole-network process task",
    "_padded_block": "the single-halo block extractor",
}
# Package-wide: the deleted slab engine and spill ledger, and the option
# that selected the ledger (as a keyword, parameter or config field).
BANNED_FORKS = {
    "halo_exchange": "the slab halo exchange",
    "split_slabs": "the slab split",
    "join_slabs": "the slab join",
    "model_parallel_conv": "the slab conv",
    "ModelParallelConvStack": "the slab conv stack",
    "SpillLedger": "the cross-process spill ledger",
    "shared_spill": "the shared-spill option",
}
BANNED_MODULES = ("model_parallel", "spill_ledger")
# Package-wide: the fleet features no benchmark metric needed — read
# spreading, tenant admission, autoscaling and the elastic membership it
# drove — and the per-request ``tenant`` they threaded through the stack.
BANNED_FLEET_FEATURES = {
    "PowerOfTwoBalancer": "the p2c read balancer",
    "AdmissionController": "per-tenant admission",
    "TenantQuota": "the per-tenant quota",
    "Autoscaler": "the queue-depth autoscaler",
    "TenantThrottled": "the tenant-throttle verdict",
    "add_shard": "elastic scale-up",
    "retire_shard": "elastic scale-down",
}
BANNED_FLEET_MODULES = ("admission", "balance", "autoscale")
# Package-wide: the second request path — streaming front-ends, the
# asyncio facade — and priority aging, as identifiers or as the string
# names the fleet's counter ledger and the stats views key on.
BANNED_REQUEST_PATHS = {
    "submit_stream": "the server's streaming front-end",
    "TileStream": "the streaming consumer handle",
    "StreamStalled": "the stream stall verdict",
    "AsyncPredictionServer": "the asyncio facade",
    "priority_aging_s": "the priority-aging option",
    "aging_s": "the aging queue rate",
    "tiles_delivered": "stream progress on DeadlineExceeded",
    "stream_resumed": "the fleet's mid-stream resume counter",
}
BANNED_REQUEST_MODULE = "aio"
# Package-wide: hedged reads, the circuit breaker and the wrappers that
# installed them, as identifiers or whole string constants.
BANNED_RESILIENCE = {
    "HedgePolicy": "the hedge policy",
    "HedgeConfig": "the hedge config",
    "HedgeTimer": "the hedge timer thread",
    "CircuitBreaker": "the circuit breaker",
    "BreakerConfig": "the breaker config",
    "ResilienceConfig": "the resilience bundle",
    "install_resilience": "the seam installer",
    "uninstall_resilience": "the seam uninstaller",
    "hedge_dispatch": "the backup dispatch",
    "breaker_open": "the breaker deflection counter",
    "--hedge": "the hedge flag",
    "--breaker-after": "the breaker threshold flag",
    "--breaker-reset": "the breaker cool-down flag",
}
# Any identifier, or string without whitespace (a flag, a ledger term,
# a span or view name), containing one of these is a regrowth.
RESILIENCE_STEMS = ("hedge", "breaker")
# Package-wide, in any text (code, strings, comments, docstrings): the
# deleted control plane, its per-shard probe, gauges, flag and views.
BANNED_CONTROL = {
    "ControlPlane": r"\bControlPlane\b",
    "ControlConfig": r"\bControlConfig\b",
    "ControlStats": r"\bControlStats\b",
    "HealthProber": r"\bHealthProber\b",
    "probe_shard": r"\bprobe_shard\b",
    "Gauge": r"\bGauge\b",
    "--control": r"--control(?![\w-])",
    "stats.control": r"\bstats\.control\b",
}
# Package-wide, in any text: the deleted client retry layer, its fleet
# seam and views, and the CLI flags that set it.
BANNED_RETRY = {
    "RetryPolicy": r"\bRetryPolicy\b",
    "RetryConfig": r"\bRetryConfig\b",
    "TokenBucket": r"\bTokenBucket\b",
    "retry_call": r"\bretry_call\b",
    "backoff_window": r"\bbackoff_window\b",
    "note_retry": r"\bnote_retry\b",
    "fleet.retry": r"\bfleet\.retry\b",
    "stats.retry": r"\bstats\.retry\b",
    "--retries": r"--retries(?![\w-])",
    "--retry-budget": r"--retry-budget(?![\w-])",
}
# The public attributes a fleet is built with; anything else set in
# ``ShardedFleet.__init__`` is a seam a caller assigns a policy to.
FLEET_PUBLIC_ATTRIBUTES = {"config", "tracer", "telemetry", "shards"}
# The net's layers a stage chains; only _run_stage may call them.
LAYERS = {"enc_blocks", "downs", "ups", "head", "bottleneck", "refinements",
          "out_conv", "final_act"}
# Functions the halos come from: kernel sizes in, no constants of their own.
HALO_FUNCTIONS = ("_radius", "_sweep_halo", "receptive_halo")


def _functions(tree: ast.AST) -> dict[str, ast.FunctionDef]:
    return {fn.name: fn for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef)}


def _calls(node: ast.AST):
    return [n for n in ast.walk(node) if isinstance(n, ast.Call)]


def _enclosing(tree: ast.AST, call: ast.Call) -> str:
    """Name of the innermost function containing ``call``."""
    inner = None
    for fn in _functions(tree).values():
        if any(n is call for n in ast.walk(fn)):
            if inner is None or any(n is fn for n in ast.walk(inner)):
                inner = fn
    return inner.name if inner else "<module>"


def _violations(source: str) -> list[str]:
    tree = ast.parse(source)
    bad = []
    for node in ast.walk(tree):
        names = [getattr(node, f, None) for f in ("id", "attr", "name")]
        bad += [f"{node.lineno}: {BANNED_NAMES[n]} ({n})"
                for n in names if n in BANNED_NAMES]
    for call in _calls(tree):
        where = _enclosing(tree, call)
        func = call.func
        # net(...): the whole network.  Only ``whole`` (a level that fits
        # in one block; the one-block plan) may run it, never a loop body.
        if isinstance(func, ast.Name) and func.id == "net" and where != "whole":
            bad.append(f"{call.lineno}: whole-network call in {where}")
        # net.<layer>[...](...) / net.<layer>(...): a stage's layers.
        target = func.value if isinstance(func, ast.Subscript) else func
        if (isinstance(target, ast.Attribute) and target.attr in LAYERS
                and where != "_run_stage"):
            bad.append(f"{call.lineno}: layer call net.{target.attr} "
                       f"in {where}")
    for loop in (n for n in ast.walk(tree)
                 if isinstance(n, (ast.For, ast.While))):
        bad += [f"{c.lineno}: whole-network call inside a loop"
                for c in _calls(loop)
                if isinstance(c.func, ast.Name) and c.func.id == "net"]
    functions = _functions(tree)
    for name in HALO_FUNCTIONS:
        for node in ast.walk(functions.get(name, ast.Module(body=[]))):
            if (isinstance(node, ast.Constant) and isinstance(node.value, int)
                    and not isinstance(node.value, bool)
                    and node.value not in (0, 1, 2)):
                bad.append(f"{node.lineno}: receptive-field constant "
                           f"{node.value} in {name}")
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
                bad.append(f"{node.lineno}: 2**depth arithmetic in {name}")
    return bad


def _forks(source: str) -> list[str]:
    """Uses of the deleted slab engine or spill ledger in one module."""
    bad = []
    for node in ast.walk(ast.parse(source)):
        names = [getattr(node, f, None) for f in ("id", "attr", "name", "arg")]
        bad += [f"{getattr(node, 'lineno', '?')}: {BANNED_FORKS[n]} ({n})"
                for n in names if n in BANNED_FORKS]
        if (isinstance(node, ast.ImportFrom) and node.module
                and node.module.split(".")[-1] in BANNED_MODULES):
            bad.append(f"{node.lineno}: import of {node.module}")
    return bad


def _fleet_features(source: str) -> list[str]:
    """Uses of the deleted fleet features in one module, and ``tenant``
    as a parameter, keyword, field, slot or attribute."""
    bad = []
    for node in ast.walk(ast.parse(source)):
        line = getattr(node, "lineno", "?")
        names = [getattr(node, f, None) for f in ("id", "attr", "name")]
        bad += [f"{line}: {BANNED_FLEET_FEATURES[n]} ({n})"
                for n in names if n in BANNED_FLEET_FEATURES]
        if (isinstance(node, ast.ImportFrom) and node.module
                and node.module.split(".")[-1] in BANNED_FLEET_MODULES):
            bad.append(f"{line}: import of {node.module}")
        slots = (isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "__slots__"
                         for t in node.targets)
                 and any(isinstance(c, ast.Constant) and c.value == "tenant"
                         for c in ast.walk(node.value)))
        if (slots
                or isinstance(node, (ast.arg, ast.keyword))
                and node.arg == "tenant"
                or isinstance(node, ast.AnnAssign)
                and getattr(node.target, "id", None) == "tenant"
                or isinstance(node, ast.Attribute) and node.attr == "tenant"
                and isinstance(node.ctx, ast.Store)):
            bad.append(f"{line}: the tenant request field (tenant)")
    return bad


def _request_paths(source: str) -> list[str]:
    """Uses of the deleted second request path or priority aging in one
    module: a banned name as an identifier, parameter, keyword, import
    or whole string constant, and any import of an ``aio`` module."""
    bad = []
    for node in ast.walk(ast.parse(source)):
        line = getattr(node, "lineno", "?")
        names = [getattr(node, f, None) for f in ("id", "attr", "name", "arg")]
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.append(node.value)
        bad += [f"{line}: {BANNED_REQUEST_PATHS[n]} ({n})"
                for n in names if n in BANNED_REQUEST_PATHS]
        modules = []
        if isinstance(node, ast.ImportFrom):
            modules = [node.module or ""] + [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        if any(m.split(".")[-1] == BANNED_REQUEST_MODULE for m in modules):
            bad.append(f"{line}: import of the asyncio facade module")
    return bad


def _resilience(source: str) -> list[str]:
    """Uses of the deleted hedge and breaker in one module: a banned
    name as an identifier, parameter, keyword, import or whole string
    constant, and any identifier or whitespace-free string containing
    ``hedge`` or ``breaker``.  Prose (docstrings, messages) is free."""
    bad = []
    for node in ast.walk(ast.parse(source)):
        line = getattr(node, "lineno", "?")
        names = [getattr(node, f, None) for f in ("id", "attr", "name", "arg")]
        if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and not any(c.isspace() for c in node.value):
            names.append(node.value)
        names = [n for n in names if isinstance(n, str)]
        bad += [f"{line}: {BANNED_RESILIENCE[n]} ({n})"
                for n in names if n in BANNED_RESILIENCE]
        bad += [f"{line}: a {stem} identifier ({n})"
                for n in names if n not in BANNED_RESILIENCE
                for stem in RESILIENCE_STEMS if stem in n.lower()]
    return bad


def _control_plane(source: str) -> list[str]:
    """Lines of one module naming the deleted control plane."""
    return [f"{line}: {name}"
            for line, text in enumerate(source.splitlines(), 1)
            for name, pattern in BANNED_CONTROL.items()
            if re.search(pattern, text)]


def _retry(source: str) -> list[str]:
    """Lines of one module naming the deleted retry layer."""
    return [f"{line}: {name}"
            for line, text in enumerate(source.splitlines(), 1)
            for name, pattern in BANNED_RETRY.items()
            if re.search(pattern, text)]


def _init_public_attributes(source: str, cls: str) -> set[str]:
    """Public ``self.<name>`` attributes assigned in ``cls.__init__``."""
    [init] = [fn for node in ast.walk(ast.parse(source))
              if isinstance(node, ast.ClassDef) and node.name == cls
              for fn in node.body
              if isinstance(fn, ast.FunctionDef) and fn.name == "__init__"]
    return {t.attr for node in ast.walk(init)
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            for t in (node.targets if isinstance(node, ast.Assign)
                      else [node.target])
            if isinstance(t, ast.Attribute)
            and isinstance(t.value, ast.Name) and t.value.id == "self"
            and not t.attr.startswith("_")}


def _definitions(name: str) -> list[str]:
    """Modules of ``src/repro`` defining a function ``name``."""
    return [str(path.relative_to(PACKAGE))
            for path in sorted(PACKAGE.rglob("*.py"))
            for fn in _functions(ast.parse(path.read_text()))
            if fn == name]


def test_the_halo_recompute_engine_stays_deleted() -> None:
    bad = _violations(TILING.read_text())
    assert not bad, (
        "a second tile engine is growing back in serve/tiling.py — run "
        "stages through _run_stage and size halos with _sweep_halo:\n  "
        + "\n  ".join(bad))


def test_one_stage_runner_behind_both_sweeps_and_the_process_task() -> None:
    tree = ast.parse(TILING.read_text())
    functions = _functions(tree)
    assert {"_run_stage", "_run_stage_task", "stream_tiled_forward",
            "_sweep_halo", "_cone"} <= set(functions)
    callers = sorted(_enclosing(tree, call) for call in _calls(tree)
                     if getattr(call.func, "id", None) == "_run_stage")
    # ``run`` is the per-block body of the one ``sweep`` loop, which the
    # down sweep (``below``) and the up sweeps (``below`` and the emitting
    # ``stream_tiled_forward``) both drive.
    assert callers == ["_run_stage_task", "run"]
    sweepers = {_enclosing(tree, call) for call in _calls(tree)
                if getattr(call.func, "id", None) == "sweep"}
    assert sweepers == {"below", "stream_tiled_forward"}
    # Exactly one generator loops over blocks and one task crosses a pipe.
    assert sum(name == "sweep" for name in functions) == 1
    assert len([c for c in _calls(tree)
                if getattr(c.func, "attr", None) == "imap_unordered"]) == 1


def test_the_slab_engine_and_spill_ledger_stay_deleted() -> None:
    assert not [p for m in BANNED_MODULES for p in PACKAGE.rglob(f"{m}.py")]
    bad = [f"{path.relative_to(PACKAGE)}:{hit}"
           for path in sorted(PACKAGE.rglob("*.py"))
           for hit in _forks(path.read_text())]
    assert not bad, (
        "a deleted second implementation is growing back — spatial "
        "decomposition is serve/tiling.py, and the result cache is "
        "LRUCache's byte-bounded memory tier:\n  " + "\n  ".join(bad))


def test_the_deleted_fleet_features_stay_deleted() -> None:
    assert not [p for m in BANNED_FLEET_MODULES
                for p in PACKAGE.rglob(f"{m}.py")]
    bad = [f"{path.relative_to(PACKAGE)}:{hit}"
           for path in sorted(PACKAGE.rglob("*.py"))
           for hit in _fleet_features(path.read_text())]
    assert not bad, (
        "a deleted fleet feature is growing back — the fleet reads its "
        "replica set in ring order, admits every request, and changes "
        "membership only by decommissioning a lost shard:\n  "
        + "\n  ".join(bad))


def test_the_second_request_path_stays_deleted() -> None:
    assert not list(PACKAGE.rglob(f"{BANNED_REQUEST_MODULE}.py"))
    bad = [f"{path.relative_to(PACKAGE)}:{hit}"
           for path in sorted(PACKAGE.rglob("*.py"))
           for hit in _request_paths(path.read_text())]
    assert not bad, (
        "a deleted request path is growing back — every served read is "
        "one submit -> queue -> fused forward -> Future, in strict "
        "priority order:\n  " + "\n  ".join(bad))


def test_hedged_reads_and_the_breaker_stay_deleted() -> None:
    bad = [f"{path.relative_to(PACKAGE)}:{hit}"
           for path in sorted(PACKAGE.rglob("*.py"))
           for hit in _resilience(path.read_text())]
    assert not bad, (
        "a deleted resilience policy is growing back — a read walks its "
        "replica set in ring order, one attempt at a time, and the fleet "
        "has no resilience seam:\n  " + "\n  ".join(bad))
    seams = _init_public_attributes(
        (PACKAGE / "serve" / "fleet.py").read_text(), "ShardedFleet")
    assert seams == FLEET_PUBLIC_ATTRIBUTES, (
        "ShardedFleet grew a public attribute — a fleet has no seam a "
        f"caller assigns a policy to: {sorted(seams)}")


def test_retry_stays_deleted() -> None:
    assert not (PACKAGE / "serve" / "resilience.py").exists()
    bad = [f"{path.relative_to(PACKAGE)}:{hit}"
           for path in sorted(PACKAGE.rglob("*.py"))
           for hit in _retry(path.read_text())]
    assert not bad, (
        "the deleted retry layer is growing back — a read heals through "
        "the fleet's failover, and the CLI client keeps its window inside "
        "the queue bound:\n  " + "\n  ".join(bad))


def test_the_control_plane_stays_deleted() -> None:
    assert not (PACKAGE / "serve" / "control").exists()
    bad = [f"{path.relative_to(PACKAGE)}:{hit}"
           for path in sorted(PACKAGE.rglob("*.py"))
           for hit in _control_plane(path.read_text())]
    assert not bad, (
        "the deleted control plane is growing back — ejected shards come "
        "back through served answers and check_health(), with no "
        "background loop:\n  " + "\n  ".join(bad))


# One source line per name the retry guard must flag.
RETRY_IDIOMS = {
    "RetryPolicy": "fleet.seam = RetryPolicy(config)\n",
    "RetryConfig": "from .resilience import RetryConfig\n",
    "TokenBucket": "self._budget = TokenBucket(rate, burst)\n",
    "retry_call": "return retry_call(policy, attempt)\n",
    "backoff_window": "delay = backoff_window(0.005, 0.5, n)\n",
    "note_retry": "self._count('retried')  # see note_retry\n",
    "fleet.retry": "Set ``fleet.retry`` to retry transient verdicts.\n",
    "stats.retry": "reg.register_view(f'stats.retry.{attr}', read)\n",
    "--retries": "p.add_argument('--retries', type=int, default=0)\n",
    "--retry-budget": "p.add_argument('--retry-budget', default=None)\n",
}


@pytest.mark.parametrize("idiom", sorted(RETRY_IDIOMS))
def test_retry_guard_catches_each_deleted_name(idiom: str) -> None:
    """The retry guard flags every name it lists, prose included."""
    assert _retry(RETRY_IDIOMS[idiom]) == [f"1: {idiom}"]


def test_retry_guard_allows_the_failover_vocabulary() -> None:
    """The word "retry", failover, the queue bound, the replay's pacing
    sleep and a retrained model are not banned."""
    assert _retry(
        '"""No client retry: a verdict reaches the caller once."""\n'
        "self._count('failovers')\n"
        "p.add_argument('--max-pending', type=int, default=0)\n"
        "self.retrying = self.clock.sleep(dt)\n"
        "# A retrained model routes to a different replica set.\n"
    ) == []


def test_fleet_seam_pin_catches_a_new_public_attribute() -> None:
    """The no-seam pin reads ``__init__``'s public assignments only."""
    source = ("class ShardedFleet:\n"
              "    def __init__(self, config):\n"
              "        self.config = config\n"
              "        self.retry = None\n"
              "        self._lock = None\n"
              "    def start(self):\n"
              "        self.started = True\n")
    assert _init_public_attributes(source, "ShardedFleet") == {
        "config", "retry"}


# One source line per idiom the control-plane guard must flag.
CONTROL_IDIOMS = {
    "ControlPlane": "plane = ControlPlane(fleet) if args.control else None\n",
    "ControlConfig": "from .control import ControlConfig\n",
    "ControlStats": "def stats(self) -> ControlStats:\n    pass\n",
    "HealthProber": "self.prober = HealthProber(fleet, jitter=1.0)\n",
    "probe_shard": "if self.fleet.probe_shard(shard, timeout_s=1.0):\n"
                   "    pass\n",
    "Gauge": "inst = self._gauges[name] = Gauge(name, clock=self.clock)\n",
    "--control": "p.add_argument('--control', action='store_true')\n",
    "stats.control": "reg.register_view(f'stats.control.{name}', read)\n",
}


@pytest.mark.parametrize("idiom", sorted(CONTROL_IDIOMS))
def test_control_guard_catches_each_deleted_name(idiom: str) -> None:
    """The control-plane guard flags every name it lists (meta-test)."""
    assert _control_plane(CONTROL_IDIOMS[idiom]) == [f"1: {idiom}"]


def test_control_guard_allows_the_fleets_own_health_path() -> None:
    """``check_health``, ``decommission_shard``, the ``probes`` ledger
    term, queue-depth readings and unrelated flags are not banned."""
    assert _control_plane(
        "readmitted = fleet.check_health()\n"
        "fleet.decommission_shard('shard-01')\n"
        "self._count('probes')\n"
        "depth = shard.queue_depth  # a load gauge, read on demand\n"
        "p.add_argument('--controller-url')\n"
        "reg.register_view('stats.fleet.healthy_shards', read)\n"
    ) == []


# One source line per idiom the resilience guard must flag.
RESILIENCE_IDIOMS = {
    "HedgePolicy": "fleet.hedge = HedgePolicy(config)\n",
    "HedgeConfig": "from .resilience import HedgeConfig\n",
    "HedgeTimer": "class HedgeTimer:\n    pass\n",
    "CircuitBreaker": "if isinstance(policy, CircuitBreaker):\n    pass\n",
    "BreakerConfig": "def f(config: BreakerConfig):\n    pass\n",
    "ResilienceConfig": "cfg = ResilienceConfig(retry=None)\n",
    "install_resilience": "install_resilience(fleet)\n",
    "uninstall_resilience": "def uninstall_resilience(fleet):\n    pass\n",
    "hedge_dispatch": "fleet.hedge_dispatch(future)\n",
    "breaker_open": "_LEDGER_TERMS = ('served', 'breaker_open')\n",
    "--hedge": "p.add_argument('--hedge', type=float)\n",
    "--breaker-after": "p.add_argument('--breaker-after', type=int)\n",
    "--breaker-reset": "p.add_argument('--breaker-reset', type=float)\n",
}
RESILIENCE_STEM_IDIOMS = {
    "hedge": "self.hedge = None\n",
    "_arm_hedge": "def _arm_hedge(self, out):\n    pass\n",
    "hedged": "state.hedged = True\n",
    "breaker": "def _fault(self, shard, breaker=None):\n    pass\n",
    "fleet.hedge": "span = tracer.start('fleet.hedge')\n",
    "stats.breaker.": "reg.register_view(f'stats.breaker.{a}', read)\n",
}


@pytest.mark.parametrize("idiom", sorted(RESILIENCE_IDIOMS))
def test_resilience_guard_catches_each_deleted_name(idiom: str) -> None:
    """The resilience guard flags every name it lists (meta-test)."""
    hits = _resilience(RESILIENCE_IDIOMS[idiom])
    assert any(f"({idiom})" in hit for hit in hits), hits


@pytest.mark.parametrize("idiom", sorted(RESILIENCE_STEM_IDIOMS))
def test_resilience_guard_catches_any_hedge_or_breaker_token(
        idiom: str) -> None:
    """Unlisted identifiers and tokens with the stems are flagged too."""
    hits = _resilience(RESILIENCE_STEM_IDIOMS[idiom])
    assert any(f"identifier ({idiom})" in hit for hit in hits), hits


def test_resilience_guard_allows_prose_and_the_failover_names() -> None:
    """Docstrings and messages may name the deleted policies; failover
    and the fleet's own counters are not banned."""
    assert _resilience(
        '"""Hedged reads and the circuit breaker were deleted."""\n'
        "self._count('failovers')\n"
        "reg.register_view('stats.fleet.shard_faults', read)\n"
        "raise ValueError('no hedge here')\n"
    ) == []


# One source line per idiom the request-path guard must flag.
REQUEST_PATH_IDIOMS = {
    "submit_stream": "stream = server.submit_stream(name, omega)\n",
    "TileStream": "def submit(self) -> TileStream:\n    pass\n",
    "StreamStalled": "class StreamStalled(RuntimeError):\n    pass\n",
    "AsyncPredictionServer": "aserver = AsyncPredictionServer(server)\n",
    "priority_aging_s": "class ServerConfig:\n"
                        "    priority_aging_s: float | None = None\n",
    "aging_s": "def __init__(self, maxsize=0, aging_s=None):\n    pass\n",
    "tiles_delivered": "raise DeadlineExceeded(m, k, 1.0, 2.0,"
                       " tiles_delivered=3)\n",
    "stream_resumed": "_LEDGER_TERMS = ('served', 'stream_resumed')\n",
    "aio module": "from .aio import facade\n",
}


@pytest.mark.parametrize("idiom", sorted(REQUEST_PATH_IDIOMS))
def test_request_path_guard_catches_each_deleted_idiom(idiom: str) -> None:
    """The request-path guard flags every idiom it names (meta-test)."""
    hits = _request_paths(REQUEST_PATH_IDIOMS[idiom])
    if idiom == "aio module":
        assert hits == ["1: import of the asyncio facade module"], hits
    else:
        assert any(f"({idiom})" in hit for hit in hits), hits


def test_request_path_guard_allows_the_library_stream() -> None:
    """The tile engine's generator and ``repro predict --stream`` stay:
    neither is a banned name, and prose may mention the deleted ones."""
    assert _request_paths(
        '"""Not submit_stream: the library generator."""\n'
        "from .tiling import stream_tiled_predict\n"
        "def predict(args):\n"
        "    if args.stream:\n"
        "        for i, sl, core in stream_tiled_predict(m, p, w):\n"
        "            pass\n"
    ) == []


# One source line per idiom the fleet guard must flag.
FLEET_IDIOMS = {
    "PowerOfTwoBalancer": "fleet.balancer = PowerOfTwoBalancer(seed=0)\n",
    "AdmissionController": "gate = AdmissionController(quota)\n",
    "TenantQuota": "quota = TenantQuota(rate=1.0, burst=2.0)\n",
    "Autoscaler": "from .autoscale import Autoscaler\n",
    "TenantThrottled": "raise TenantThrottled('m', 't', 0.1, 1.0, 2.0)\n",
    "add_shard": "fleet.add_shard()\n",
    "retire_shard": "fleet.retire_shard(drain_timeout_s=1.0)\n",
    "tenant parameter": "def submit(self, name, omega, tenant=None):\n"
                        "    pass\n",
    "tenant keyword": "fleet.submit(name, omega, tenant='t')\n",
    "tenant field": "class PredictRequest:\n    tenant: str | None = None\n",
    "tenant slot": "class _RouteState:\n    __slots__ = ('omega', 'tenant')\n",
    "tenant attribute": "def __init__(self, tenant):\n"
                        "    self.tenant = tenant\n",
    # A trace event's label is a field like any other.
    "tenant label": "class TraceEvent:\n    tenant: str | None = None\n",
}


@pytest.mark.parametrize("idiom", sorted(FLEET_IDIOMS))
def test_fleet_guard_catches_each_deleted_idiom(idiom: str) -> None:
    """The fleet guard flags every idiom it names (meta-test)."""
    hits = _fleet_features(FLEET_IDIOMS[idiom])
    assert hits, idiom
    if idiom.startswith("tenant"):
        assert all("(tenant)" in hit for hit in hits), hits
    else:
        assert any(f"({idiom})" in hit for hit in hits), hits


def test_one_block_extractor_in_the_tile_engine() -> None:
    assert _definitions("extract_padded_block") == ["serve/tiling.py"]


def test_guard_catches_the_deleted_forks() -> None:
    """The package-wide guard flags every idiom it names (meta-test)."""
    text = "\n".join(_forks(
        "from ..distributed.model_parallel import halo_exchange\n"
        "from .spill_ledger import SpillLedger\n"
        "def f(x, layer, stack):\n"
        "    slabs = split_slabs(x, 2)\n"
        "    slabs = model_parallel_conv(layer, slabs)\n"
        "    return join_slabs(slabs), stack.ModelParallelConvStack\n"
        "class Config:\n"
        "    shared_spill: bool = False\n"
        "def cache(spill_dir, shared_spill=False):\n"
        "    return LRUCache(spill_dir, shared_spill=True)\n"))
    for name in BANNED_FORKS:
        assert f"({name})" in text, name
    assert text.count("(shared_spill)") == 3      # field, parameter, keyword
    assert "import of distributed.model_parallel" in text
    assert "import of spill_ledger" in text


def test_guard_catches_the_old_engine() -> None:
    """The guard itself must flag every idiom it names (meta-test)."""
    bad = _violations(
        "def receptive_halo(model):\n"
        "    unit = 2 ** model.net.depth\n"
        "    radius = 4 * unit - 3 + 2 * n_ref\n"
        "    return ((radius + unit - 1) // unit) * unit\n"
        "def _forward_tile(net, buf, core_src):\n"
        "    return net(Tensor(buf)).numpy()[core_src].copy()\n"
        "def stream(net, x, plan):\n"
        "    for i in indices:\n"
        "        yield net(Tensor(x))\n"
        "def other(net, x):\n"
        "    return net.enc_blocks[0](x)\n")
    text = "\n".join(bad)
    assert "_forward_tile" in text
    assert "receptive-field constant 4" in text
    assert "receptive-field constant 3" in text
    assert "2**depth arithmetic" in text
    assert "whole-network call in stream" in text
    assert "inside a loop" in text
    assert "layer call net.enc_blocks in other" in text
