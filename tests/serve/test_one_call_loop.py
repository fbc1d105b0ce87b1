"""Guard: everything around the fleet's read path is written once.

* **No client retry loop.**  Every read is submitted once and heals
  through the fleet's failover.  ``cli.py`` and ``serve/fleet.py``
  never grow back a ``while True:`` that submits (nor call
  ``time.sleep``: a ``tests/denylist.py`` row; the fleet's hang
  watchdog waits on an event until the oldest attempt is due).
* **One forward on the calling side of the GIL.**  ``serve/server.py``
  pickles in one place (the version-cached blob helper);
  ``PredictionServer._forward`` is one ``tiled_predict`` call — the
  untiled field its one-tile plan — plus the one measured fork, the
  untiled batch a process executor ships whole (``executor.map``); and
  ``predict_batch`` itself runs only inside that pool task, never on a
  server thread.

This walks the AST, so comments and docstrings that *mention* the old
names do not trip it.  ``tests/mutants.py`` plants a submitting loop and
a second pickle to show each check fails.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
SERVE = SRC / "serve"


def _tree(path: Path) -> ast.AST:
    return ast.parse(path.read_text(), filename=str(path))


def _method_calls(tree: ast.AST, attr: str) -> list[ast.Call]:
    """Every ``<expr>.<attr>(...)`` call in ``tree``."""
    return [n for n in ast.walk(tree)
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
            and n.func.attr == attr]


def _enclosing_function(tree: ast.AST, target: ast.AST) -> str | None:
    inner = None
    for fn in ast.walk(tree):   # breadth-first: the last hit is innermost
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                n is target for n in ast.walk(fn)):
            inner = fn.name
    return inner


def _hand_written_loops(tree: ast.AST) -> list[int]:
    """Lines of ``while True:`` loops whose body submits."""
    return [n.lineno for n in ast.walk(tree)
            if isinstance(n, ast.While)
            and isinstance(n.test, ast.Constant) and n.test.value is True
            and _method_calls(n, "submit")]


def _constructors(tree: ast.AST, name: str) -> list[ast.Call]:
    """Every bare-name ``<name>(...)`` call in ``tree``."""
    return [n for n in ast.walk(tree)
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
            and n.func.id == name]


# --------------------------------------------------------------------- #
# No client retry loop
# --------------------------------------------------------------------- #
def test_no_hand_written_retry_loop_in_the_clients() -> None:
    for path in (SRC / "cli.py", SERVE / "fleet.py"):
        assert _hand_written_loops(_tree(path)) == [], path.name


# --------------------------------------------------------------------- #
# One forward
# --------------------------------------------------------------------- #
def _pickle_dumps(tree: ast.AST) -> list[ast.Call]:
    return [c for c in _method_calls(tree, "dumps")
            if isinstance(c.func.value, ast.Name)
            and c.func.value.id == "pickle"]


def _function(tree: ast.AST, name: str) -> ast.FunctionDef:
    [fn] = [n for n in ast.walk(tree)
            if isinstance(n, ast.FunctionDef) and n.name == name]
    return fn


def test_server_forward_is_the_tile_engine_plus_the_process_fork() -> None:
    tree = _tree(SERVE / "server.py")
    assert len(_pickle_dumps(tree)) == 1
    # The reference forward runs in pool workers only.
    assert {_enclosing_function(tree, c)
            for c in _constructors(tree, "predict_batch")} == {
                "_predict_batch_remote"}
    forward = _function(tree, "_forward")
    assert len(_constructors(forward, "tiled_predict")) == 1
    assert len(_method_calls(forward, "map")) == 1
