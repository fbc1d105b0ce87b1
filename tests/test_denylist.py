"""Deleted code stays deleted: the rows of ``tests/denylist.py``, checked.

One checker per row kind.  Each reads a tree's modules through one
cached index (every module parsed once), so the whole table costs one
pass over ``src/repro``.  ``test_row_is_absent`` runs a row against the
source; ``test_checker_flags_a_planted_row`` plants the row into a
scratch module and asserts that its checker flags it, so a checker (or
a row) that can match nothing fails instead of passing quietly.
"""

from __future__ import annotations

import ast
import fnmatch
import functools
import re
from collections import defaultdict
from pathlib import Path

import pytest

from tests.denylist import ROWS, Row

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"


@functools.cache
def _source(root: Path = SRC) -> tuple:
    """(path, text, tree) of every module under ``root``, parsed once."""
    files = sorted(root.rglob("*.py"))
    assert files, f"no modules under {root}"
    return tuple((p.relative_to(root).as_posix(), p.read_text(),
                  ast.parse(p.read_text())) for p in files)


def _in_scope(path: str, scope: str) -> bool:
    parts = scope.split()
    keep = tuple(p for p in parts if not p.startswith("!"))
    drop = tuple(p[1:] for p in parts if p.startswith("!"))
    return (not keep or path.startswith(keep)) and not path.startswith(drop)


def _dotted(node: ast.AST) -> str:
    """``a.b.c`` for an attribute chain; ``""`` stands in for a call or
    subscript base (``f().backward`` -> ``.backward``)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return f"{_dotted(node.value)}.{node.attr}"
    return ""


def _classes(tree: ast.AST):
    """(owner, node): every class and function with its enclosing class
    (``""`` at module level)."""
    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                yield owner, child
                yield from walk(child, child.name if isinstance(
                    child, ast.ClassDef) else owner)
            else:
                yield from walk(child, owner)
    return walk(tree, "")


# -- one token stream per kind: (line, token) for one module ------------ #
def _idents(tree):
    for node in ast.walk(tree):
        line = getattr(node, "lineno", 0)
        if isinstance(node, ast.Attribute):
            yield line, node.attr
            yield line, _dotted(node)
        elif isinstance(node, ast.alias):
            yield line, node.name
            if node.asname:
                yield line, node.asname
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value and not any(c.isspace() for c in node.value):
                yield line, node.value
        else:
            for field in ("id", "name", "arg"):
                value = getattr(node, field, None)
                if isinstance(value, str):
                    yield line, value


def _defs(tree):
    for owner, node in _classes(tree):
        yield node.lineno, node.name
        yield node.lineno, f"{owner}.{node.name}"
        if isinstance(node, ast.ClassDef):
            for sub in ast.walk(node):
                if (isinstance(sub, ast.Attribute)
                        and isinstance(sub.ctx, ast.Store)
                        and _dotted(sub.value) == "self"):
                    yield sub.lineno, f"{node.name}.{sub.attr}"


def _fields(tree):
    for owner, node in _classes(tree):
        if isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(
                        stmt.target, ast.Name):
                    yield stmt.lineno, f"{node.name}.{stmt.target.id}"
        else:
            name = owner if node.name == "__init__" else node.name
            args = node.args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                        args.vararg, args.kwarg):
                if arg is not None:
                    yield node.lineno, f"{name}.{arg.arg}"


def _flags(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _dotted(node.func).endswith(
                "add_argument"):
            for arg in node.args:
                if isinstance(arg, ast.Constant) and str(arg.value).startswith(
                        "-"):
                    yield node.lineno, arg.value


_ENV = ("os.environ", "os.getenv")


def _env(tree):
    """Environment reads, keyed by the variable where it is a literal."""
    keys = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and node.args:
            target, key = node.func, node.args[0]
        elif isinstance(node, ast.Subscript):
            target, key = node.value, node.slice
        else:
            continue
        for read in (target, getattr(target, "value", None)):
            if _dotted(read) in _ENV and isinstance(key, ast.Constant):
                keys[id(read)] = str(key.value)      # os.environ.get("X")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _dotted(node) in _ENV:
            yield node.lineno, keys.get(id(node), "")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            yield from ((node.lineno, "") for a in node.names
                        if a.name in ("environ", "getenv"))


def _imports(tree, path):
    parts = path.removesuffix(".py").split("/")
    package = parts[:-1]
    if parts[-1] == "__init__":
        parts = package
    yield 0, ".".join(parts)            # the module itself
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, a.name) for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            keep = len(package) + 1 - node.level if node.level else 0
            module = ".".join([*package[:keep], node.module or ""]).strip(".")
            yield node.lineno, module
            yield from ((node.lineno, f"{module}.{a.name}")
                        for a in node.names)


def _glob(pattern: str):
    return re.compile(fnmatch.translate(pattern), re.IGNORECASE).match


def _component(pattern: str):
    match = _glob(pattern)
    return lambda dotted: any(match(part) for part in dotted.split("."))


def _flag(name: str):
    return lambda option: option.startswith(name)


STREAMS = {
    "ident": (lambda tree, path: _idents(tree), _glob),
    "def": (lambda tree, path: _defs(tree), _glob),
    "field": (lambda tree, path: _fields(tree), _glob),
    "flag": (lambda tree, path: _flags(tree), _flag),
    "env": (lambda tree, path: _env(tree), _glob),
    "import": (_imports, _component),
}


@functools.cache
def _index(kind: str, modules: tuple) -> dict[str, list[tuple[str, int]]]:
    """token -> [(path, line)] over ``modules``, one walk per module."""
    stream, _ = STREAMS[kind]
    where = defaultdict(list)
    for path, _text, tree in modules:
        for line, token in stream(tree, path):
            where[token].append((path, line))
    return where


def hits(row: Row, modules: tuple) -> list[str]:
    """``path:line: token`` for every place ``row`` is found."""
    if row.kind == "text":
        pattern = re.compile(rf"(?<![\w-])(?:{row.name})(?![\w-])")
        return [f"{path}:{text.count(chr(10), 0, m.start()) + 1}: {m[0]}"
                for path, text, _ in modules if _in_scope(path, row.scope)
                for m in pattern.finditer(text)]
    match = STREAMS[row.kind][1](row.name)
    return sorted(f"{path}:{line}: {token}"
                  for token, places in _index(row.kind, modules).items()
                  if match(token)
                  for path, line in places if _in_scope(path, row.scope))


def _row_id(row: Row) -> str:
    return f"{row.kind}:{row.plant or row.name}@{row.scope or '*'}"


@pytest.mark.parametrize("row", ROWS, ids=_row_id)
def test_row_is_absent(row: Row) -> None:
    modules = _source()
    assert any(_in_scope(path, row.scope) for path, _, _ in modules), (
        f"scope {row.scope!r} names no module: fix the row")
    found = hits(row, modules)
    assert not found, (
        f"deleted in PR {row.pr} and growing back ({row.kind} {row.name!r}); "
        f"what it offered is {row.carrier}:\n  " + "\n  ".join(found))


def plant(row: Row) -> tuple[str, str]:
    """(path, source) of a scratch module that holds ``row``."""
    sample = re.sub(r"\[(.)[^]]*\]", r"\1", row.name).replace("*", "x")
    owner, _, member = sample.rpartition(".")
    source = {
        "text": f"# {row.plant or sample}\n",
        "ident": f"_ = {sample}\n",
        "def": (f"class {owner}:\n    def {member}(self):\n        pass\n"
                if owner else f"def {member}():\n    pass\n"),
        "field": f"class {owner}:\n    {member}: int = 0\n",
        "flag": f"p.add_argument({sample!r})\n",
        "env": f"import os\nvalue = os.environ.get({sample!r})\n",
        "import": f"from .{sample} import x\n",
    }[row.kind]
    keep = [p for p in row.scope.split() if not p.startswith("!")]
    path = keep[0] if keep else ""
    return (path if path.endswith(".py") else path + "planted.py"), source


@pytest.mark.parametrize("row", ROWS, ids=_row_id)
def test_checker_flags_a_planted_row(row: Row) -> None:
    path, source = plant(row)
    assert hits(row, ((path, source, ast.parse(source)),)), (path, source)


def test_the_table_is_well_formed() -> None:
    """Rows are unique, of a known kind, and each carrier test exists."""
    assert len(set(ROWS)) == len(ROWS)
    assert {row.kind for row in ROWS} <= {"text", *STREAMS}
    for carrier in {row.carrier for row in ROWS}:
        path, *names = carrier.split("::")
        tree = ast.parse((ROOT / path).read_text())
        defined = {node.name for node in ast.walk(tree) if isinstance(
            node, (ast.FunctionDef, ast.ClassDef))}
        assert set(names) <= defined, carrier
