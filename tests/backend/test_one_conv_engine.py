"""Guard: there is one convolution engine.

``backend/conv_plan.py`` holds three primitives over one channels-first
layout, and ``autograd/ops_conv.py`` drives them.  Two engines, a
five-threshold shape heuristic choosing between them and a channels-last
result that every caller had to ``moveaxis`` back were measured and
deleted (README "Engine kill table"); this walks the AST of both modules
and fails where they would grow back: an ``IM2COL_*`` threshold, a
branch on a plan's ``.path``, a per-engine ``_forward_*`` /
``_backward_*`` / ``_decide`` function, or a ``moveaxis`` between the
engine and the tensor it returns.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
MODULES = ("backend/conv_plan.py", "autograd/ops_conv.py")

PRIMITIVES = {"conv_forward", "conv_backward_data", "conv_backward_weight"}
ENGINE_FUNCTION = re.compile(r"_decide|_forward_\w+|_backward_\w+|run_conv_\w+")


def _identifiers(tree: ast.AST):
    for node in ast.walk(tree):
        for field in ("id", "attr", "name", "arg"):
            value = getattr(node, field, None)
            if isinstance(value, str):
                yield node, value


def _called(node: ast.Call) -> str | None:
    return getattr(node.func, "attr", getattr(node.func, "id", None))


def _violations(source: str, where: str) -> list[str]:
    tree = ast.parse(source, filename=where)
    bad = [f"{where}:{node.lineno}: threshold {name}"
           for node, name in _identifiers(tree) if name.startswith("IM2COL_")]
    bad += [f"{where}:{node.lineno}: engine function {node.name}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and ENGINE_FUNCTION.fullmatch(node.name)]
    bad += [f"{where}:{node.lineno}: branch on .path"
            for node in ast.walk(tree) if isinstance(node, ast.Compare)
            and any(isinstance(side, ast.Attribute) and side.attr == "path"
                    for side in [node.left, *node.comparators])]
    # Any function that runs the engine returns what it produced as is:
    # the output is already (N, C, *spatial) and C-contiguous.
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        calls = [n for n in ast.walk(fn) if isinstance(n, ast.Call)]
        runs_engine = (fn.name in PRIMITIVES
                       or any(_called(c) in PRIMITIVES for c in calls))
        bad += [f"{where}:{c.lineno}: moveaxis on an engine result"
                for c in calls if runs_engine and _called(c) == "moveaxis"]
    return bad


@pytest.mark.parametrize("module", MODULES)
def test_the_deleted_engines_stay_deleted(module: str) -> None:
    bad = _violations((SRC / module).read_text(), module)
    assert not bad, (
        "a second conv engine is growing back — extend the three "
        "primitives in backend/conv_plan.py instead:\n  " + "\n  ".join(bad))


def test_the_engine_is_three_primitives() -> None:
    """... plus the one fused kernel on the same geometry, the FEM energy
    (``conv_energy``: quadratic form and its gradient, chunk by chunk)."""
    from repro.backend import conv_plan

    assert PRIMITIVES <= set(conv_plan.__all__)
    public = {name for name in conv_plan.__all__
              if callable(getattr(conv_plan, name))
              and not isinstance(getattr(conv_plan, name), type)}
    assert public - PRIMITIVES == {"plan_conv", "clear_plan_cache",
                                   "plan_cache_info", "conv_energy"}


def test_guard_catches_the_old_engines() -> None:
    """The guard itself must flag every idiom it names (meta-test)."""
    bad = _violations(
        "IM2COL_MAX_TAPS = 64\n"
        "def _decide(sig):\n"
        "    return 'im2col' if sig.taps <= IM2COL_MAX_TAPS else 'tensordot'\n"
        "def _forward_tensordot(xp, w):\n"
        "    return xp\n"
        "def run_conv_forward(plan, xp, w):\n"
        "    if plan.path == 'im2col':\n"
        "        return xp\n"
        "    return _forward_tensordot(xp, w)\n"
        "def forward(ctx, x, w):\n"
        "    return B.moveaxis(conv_forward(plan, x, w), -1, 1)\n"
        "def flip_weights(w):\n"
        "    return ob.moveaxis(w, 0, 1)\n", "sample.py")
    kinds = [line.split(": ", 1)[1].split(" ")[0] for line in bad]
    assert kinds.count("threshold") == 2
    assert kinds.count("engine") == 3
    assert kinds.count("branch") == 1
    assert kinds.count("moveaxis") == 1       # not the weight flip


# --------------------------------------------------------------------- #
# One column builder.  The taps of a run are views of one copied block
# (``ConvPlan.run``; one tap per run is the same loop run once), so the
# engine has one ``_columns`` and GEMMs only where columns are consumed.
# --------------------------------------------------------------------- #
GEMM_SITES = {"_tap_gemm", "conv_backward_weight", "conv_energy"}
MODULE_NAMES = {"__all__", "COLS_CHUNK_BYTES", "MIN_CHUNK_COLS", "_CACHE_LOCK",
                "_PLAN_CACHE", "_cache_hits", "_cache_misses", "Block",
                "Index"}
SELECTOR = re.compile(r"path|mode|builder|engine|kind|form|variant|stacked|"
                      r"use_\w+|\w+_views?")


def _conv_plan_tree() -> ast.Module:
    return ast.parse((SRC / "backend/conv_plan.py").read_text())


def _sites(tree: ast.Module, called: str) -> set[str]:
    """Top-level functions whose body calls ``called``."""
    return {fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef)
            and any(isinstance(n, ast.Call) and _called(n) == called
                    for n in ast.walk(fn))}


def test_gemms_and_columns_live_where_columns_are_consumed() -> None:
    tree = _conv_plan_tree()
    assert _sites(tree, "matmul") == GEMM_SITES
    assert _sites(tree, "_columns") == GEMM_SITES
    # ... and nothing else multiplies matrices (``a @ b``, ``dot``, ...).
    assert not [n for n in ast.walk(tree) if isinstance(n, ast.BinOp)
                and isinstance(n.op, ast.MatMult)]
    for other in ("dot", "tensordot", "einsum"):
        assert not _sites(tree, other), other
    builders = {fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef)
                and re.search(r"col", fn.name)}
    assert builders == {"_columns", "_cols_size", "_chunk_cols"}


def test_nothing_selects_between_column_builders() -> None:
    """No plan field, module global or environment variable picks a
    builder: the run length is geometry, derived from the signature."""
    import dataclasses

    from repro.backend.conv_plan import ConvPlan, ConvSignature

    tree = _conv_plan_tree()
    assigned = {t.id for node in tree.body
                if isinstance(node, (ast.Assign, ast.AnnAssign))
                for t in (node.targets if isinstance(node, ast.Assign)
                          else [node.target]) if isinstance(t, ast.Name)}
    assert assigned == MODULE_NAMES
    assert "environ" not in {name for _, name in _identifiers(tree)}
    for cls in (ConvPlan, ConvSignature):
        fields = {f.name: f.type for f in dataclasses.fields(cls)}
        assert not [n for n in fields if SELECTOR.fullmatch(n)], fields
        assert "str" not in {t for n, t in fields.items() if n != "dtype"}
    # The signature is shapes, stride, padding and dtype — what a caller
    # has, not what a caller wants.
    assert set(fields) == {"x_shape", "w_shape", "stride", "padding", "dtype"}
