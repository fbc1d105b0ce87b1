"""Guard: tiled inference has one engine, the level-wise sweeps.

``serve/tiling.py`` runs the U-Net level by level: one function,
``_run_stage``, runs a stage on a padded block, and both sweeps (through
the one ``sweep`` loop) and the process-task entry point call it.  The
engine it replaced — the whole network re-run under a receptive-field
halo on every tile, ``net(Tensor(buf))`` inside the tile loop, the halo
from the hand-derived ``4 * 2**depth - 3 + 2 * n_ref`` — was measured
(README "Engine kill table", ``docs/pr22_level_tiling.md``) and deleted;
this walks the module's AST and fails where it would grow back.

The names of that engine, of the slab engine and spill ledger (PR 30),
of the fleet features no benchmark metric needed (PRs 31, 32, 34, 35,
36: read spreading, tenant admission, autoscaling, the streaming
front-ends, the asyncio facade, priority aging, hedged reads, the
breaker, the control plane and client retry) are rows of
``tests/denylist.py``.  What stays here is structural: the sweeps'
shape, one block extractor (defined in ``serve/tiling.py`` only), and
``ShardedFleet.__init__`` setting no public attribute beyond its config,
tracer, telemetry handle and shard list, so a fleet has no seam a
caller assigns a policy to.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[2] / "src" / "repro"
TILING = PACKAGE / "serve" / "tiling.py"

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


def test_one_block_extractor_in_the_tile_engine() -> None:
    for name in ("_block", "_stage_inputs", "_grown"):
        assert _definitions(name) == ["serve/tiling.py"], name

def test_the_fleet_has_no_policy_seam() -> None:
    seams = _init_public_attributes(
        (PACKAGE / "serve" / "fleet.py").read_text(), "ShardedFleet")
    assert seams == FLEET_PUBLIC_ATTRIBUTES, (
        "ShardedFleet grew a public attribute — a fleet has no seam a "
        f"caller assigns a policy to: {sorted(seams)}")
