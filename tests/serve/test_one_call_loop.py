"""Guard: everything around the fleet's read path is written once.

* **No client retry loop.**  Every read is submitted once and heals
  through the fleet's failover.  ``cli.py`` never sleeps and
  ``serve/replay.py`` only inside ``ReplayHarness._sleep`` (its pacing
  sleep, on the real or the virtual clock); neither they nor
  ``serve/fleet.py`` grow back a ``while True:`` that submits.
* **One forward on the calling side of the GIL.**  ``serve/server.py``
  pickles in one place (the version-cached blob helper);
  ``PredictionServer._forward`` is one ``tiled_predict`` call — the
  untiled field its one-tile plan — plus the one measured fork, the
  untiled batch a process executor ships whole (``executor.map``); and
  ``predict_batch`` itself runs only inside that pool task, never on a
  server thread.

This walks the AST, so comments and docstrings that *mention* the old
names do not trip it.
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


def _time_sleeps(tree: ast.AST) -> list[ast.Call]:
    return [c for c in _method_calls(tree, "sleep")
            if isinstance(c.func.value, ast.Name)
            and c.func.value.id == "time"]


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
def test_cli_and_replay_do_not_sleep_on_their_own() -> None:
    assert _time_sleeps(_tree(SRC / "cli.py")) == []
    replay = _tree(SERVE / "replay.py")
    sleeps = _time_sleeps(replay)
    assert [_enclosing_function(replay, c) for c in sleeps] == ["_sleep"]


def test_no_hand_written_retry_loop_in_the_clients() -> None:
    for path in (SRC / "cli.py", SERVE / "replay.py", SERVE / "fleet.py"):
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


# --------------------------------------------------------------------- #
# Meta-tests: the guard must flag what it guards against
# --------------------------------------------------------------------- #
def test_guard_catches_the_copies() -> None:
    bad = ast.parse(
        "import time, pickle\n"
        "def _forward(self, entry, omegas):\n"
        "    if self.config.tile is None:\n"
        "        return predict_batch(entry.model, entry.problem, omegas)\n"
        "    return tiled_predict(entry.model, entry.problem, omegas)\n"
        "def drain(fleet, f):\n"
        "    delay = 0.002\n"
        "    while True:\n"
        "        try:\n"
        "            return fleet.submit('m', 0).result()\n"
        "        except ServerOverloaded:\n"
        "            time.sleep(delay)\n"
        "def blobs(a, b):\n"
        "    return pickle.dumps(a), pickle.dumps(b)\n")
    sleeps = _time_sleeps(bad)
    assert len(sleeps) == 1
    assert _enclosing_function(bad, sleeps[0]) == "drain"
    assert _hand_written_loops(bad) == [8]
    assert len(_pickle_dumps(bad)) == 2
    assert [_enclosing_function(bad, c)
            for c in _constructors(bad, "predict_batch")] == ["_forward"]


def test_guard_allows_the_one_shot_shape() -> None:
    ok = ast.parse(
        "def predict(self, name, omega):\n"
        "    '''Mentions while True: and time.sleep( in prose only.'''\n"
        "    return self.await_result(self.submit(name, omega))\n"
        "def _sleep(self, dt):\n"
        "    time.sleep(dt)\n"
        "def wait(self):\n"
        "    while True:\n"
        "        if self.done():\n"
        "            return\n"
        "        self.clock.sleep(0.1)\n")
    assert _hand_written_loops(ok) == []
    assert [_enclosing_function(ok, c) for c in _time_sleeps(ok)] == ["_sleep"]
