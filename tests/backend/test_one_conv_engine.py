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
