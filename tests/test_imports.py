"""Every import in ``src/repro`` is used.

A module (other than a package ``__init__``, whose imports are its
exports) may import only names it reads, or that it re-exports by
listing them in ``__all__``.  The check is an AST walk, so it needs no
linter: a name counts as read when it appears as a ``Name`` anywhere in
the module, quoted annotations included.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _exported(tree: ast.Module) -> set[str]:
    """The string entries of a module-level ``__all__`` list or tuple."""
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            names.update(elt.value for elt in getattr(node.value, "elts", ())
                         if isinstance(elt, ast.Constant))
    return names


def _annotations(tree: ast.Module):
    """Every annotation expression: parameters, returns, annotated
    assignments."""
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _read(tree: ast.Module) -> set[str]:
    """Names the module reads, including those inside quoted
    annotations (``-> "Module"``)."""
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in _annotations(tree):
        for const in ast.walk(ann) if ann is not None else ():
            if isinstance(const, ast.Constant) and isinstance(const.value,
                                                              str):
                try:
                    quoted = ast.parse(const.value, mode="eval")
                except SyntaxError:
                    continue
                names.update(n.id for n in ast.walk(quoted)
                             if isinstance(n, ast.Name))
    return names


def unused_imports(source: str) -> list[tuple[int, str]]:
    """``(line, name)`` of every imported name ``source`` neither reads
    nor lists in ``__all__``."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, a.asname or a.name.partition(".")[0])
                      for a in node.names]
        elif (isinstance(node, ast.ImportFrom)
              and node.module != "__future__"):
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    keep = _read(tree) | _exported(tree)
    return sorted((line, name) for line, name in bound if name not in keep)


MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES,
                         ids=[p.relative_to(SRC).as_posix() for p in MODULES])
def test_every_import_is_used(path: Path) -> None:
    found = unused_imports(path.read_text())
    assert not found, "unused imports: " + ", ".join(
        f"{path.relative_to(SRC)}:{line} {name}" for line, name in found)


def test_a_planted_unused_import_is_caught() -> None:
    """The check flags a scratch module's dead import, and not one that
    is read, re-exported or only named in a quoted annotation."""
    planted = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import Iterable, Sequence\n"
        "from .module import Module, Parameter as P\n"
        "__all__ = ['Sequence']\n"
        "def f(x: 'Iterable[int]') -> 'Module':\n"
        "    return os.path.join(x)\n"
        "from .tensor import Tensor\n")
    assert unused_imports(planted) == [(4, "P"), (8, "Tensor")]
