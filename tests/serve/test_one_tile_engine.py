"""Guard: tiled inference has one engine, the level-wise sweeps.

``serve/tiling.py`` runs the U-Net level by level: one function,
``_run_stage``, runs a stage on a padded block, and both sweeps (through
the one ``sweep`` loop) and the process-task entry point call it.  The
engine it replaced — the whole network re-run under a receptive-field
halo on every tile, ``net(Tensor(buf))`` inside the tile loop, the halo
from the hand-derived ``4 * 2**depth - 3 + 2 * n_ref`` — was measured
(README "Engine kill table", ``docs/pr22_level_tiling.md``) and deleted;
this walks the module's AST and fails where it would grow back.
"""

from __future__ import annotations

import ast
from pathlib import Path

TILING = (Path(__file__).resolve().parents[2]
          / "src" / "repro" / "serve" / "tiling.py")

BANNED_NAMES = {
    "_forward_tile": "the whole-network tile forward",
    "_run_tile_task": "the whole-network process task",
    "_padded_block": "the single-halo block extractor",
}
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
