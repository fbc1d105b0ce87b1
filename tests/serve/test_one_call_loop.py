"""Guard: everything around the fleet's read path is written once.

* **One retry driver.**  ``policy.plan(...)`` is asked from
  ``serve/resilience.py`` (``retry_call``, the synchronous loop) and
  ``serve/aio.py`` (its ``await``-ing twin) and nowhere else under
  ``src/repro``; ``cli.py`` never sleeps on its own and
  ``serve/replay.py`` only inside ``ReplayHarness._sleep`` (the
  virtual-clock sleep it injects into the driver); neither grows back a
  ``while True:`` that submits or plans.
* **One token bucket.**  ``TokenBucket(...)`` is constructed by the
  retry budget (``resilience.py``) and per-tenant admission
  (``control/admission.py``); no other class under ``src/repro/serve``
  keeps its own ``…updated_at`` refill stamp.
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


def _rel(path: Path) -> str:
    return path.relative_to(SRC).as_posix()


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
    """Lines of ``while True:`` loops whose body submits or plans."""
    return [n.lineno for n in ast.walk(tree)
            if isinstance(n, ast.While)
            and isinstance(n.test, ast.Constant) and n.test.value is True
            and (_method_calls(n, "submit") or _method_calls(n, "plan"))]


def _constructors(tree: ast.AST, name: str) -> list[ast.Call]:
    """Every bare-name ``<name>(...)`` call in ``tree``."""
    return [n for n in ast.walk(tree)
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
            and n.func.id == name]


def _refill_stamp_classes(tree: ast.AST) -> list[str]:
    """Classes that assign ``self.<…updated_at>`` — a private bucket."""
    out = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for n in ast.walk(cls):
            targets = (n.targets if isinstance(n, ast.Assign)
                       else [n.target] if isinstance(
                           n, (ast.AnnAssign, ast.AugAssign)) else [])
            if any(isinstance(t, ast.Attribute)
                   and t.attr.endswith("updated_at") for t in targets):
                out.append(cls.name)
                break
    return out


# --------------------------------------------------------------------- #
# One retry driver
# --------------------------------------------------------------------- #
def test_plan_is_asked_by_the_two_drivers_only() -> None:
    callers = {_rel(p) for p in sorted(SRC.rglob("*.py"))
               if _method_calls(_tree(p), "plan")}
    assert callers == {"serve/resilience.py", "serve/aio.py"}


def test_cli_and_replay_do_not_sleep_on_their_own() -> None:
    assert _time_sleeps(_tree(SRC / "cli.py")) == []
    replay = _tree(SERVE / "replay.py")
    sleeps = _time_sleeps(replay)
    assert [_enclosing_function(replay, c) for c in sleeps] == ["_sleep"]


def test_no_hand_written_retry_loop_in_the_clients() -> None:
    for path in (SRC / "cli.py", SERVE / "replay.py", SERVE / "fleet.py"):
        assert _hand_written_loops(_tree(path)) == [], path.name


# --------------------------------------------------------------------- #
# One bucket
# --------------------------------------------------------------------- #
def test_token_bucket_has_two_owners_and_no_private_copy() -> None:
    owners, stamps = set(), {}
    for path in sorted(SERVE.rglob("*.py")):
        tree = _tree(path)
        if _constructors(tree, "TokenBucket"):
            owners.add(_rel(path))
        for cls in _refill_stamp_classes(tree):
            stamps[cls] = _rel(path)
    assert owners == {"serve/resilience.py", "serve/control/admission.py"}
    assert stamps == {"TokenBucket": "serve/resilience.py"}


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
        "class Limiter:\n"
        "    def __init__(self):\n"
        "        self._updated_at: float | None = None\n"
        "    def refill(self, now):\n"
        "        self._updated_at = now\n"
        "def drain(fleet, f):\n"
        "    attempt = 0\n"
        "    while True:\n"
        "        try:\n"
        "            return fleet.submit('m', 0).result()\n"
        "        except Exception as exc:\n"
        "            delay = fleet.retry.plan(exc, attempt)\n"
        "            time.sleep(delay)\n"
        "def blobs(a, b):\n"
        "    return pickle.dumps(a), pickle.dumps(b), TokenBucket(1, 2)\n")
    assert len(_method_calls(bad, "plan")) == 1
    sleeps = _time_sleeps(bad)
    assert len(sleeps) == 1
    assert _enclosing_function(bad, sleeps[0]) == "drain"
    assert _hand_written_loops(bad) == [13]
    assert _refill_stamp_classes(bad) == ["Limiter"]
    assert len(_constructors(bad, "TokenBucket")) == 1
    assert len(_pickle_dumps(bad)) == 2
    assert [_enclosing_function(bad, c)
            for c in _constructors(bad, "predict_batch")] == ["_forward"]


def test_guard_allows_the_driver_shape() -> None:
    ok = ast.parse(
        "def predict(self, name, omega):\n"
        "    '''Mentions policy.plan( and time.sleep( in prose only.'''\n"
        "    return retry_call(self.retry,\n"
        "                      lambda: self.submit(name, omega).result(),\n"
        "                      on_retry=self.note_retry)\n"
        "def _sleep(self, dt):\n"
        "    time.sleep(dt)\n"
        "def wait(self):\n"
        "    while True:\n"
        "        if self.done():\n"
        "            return\n"
        "        self.clock.sleep(0.1)\n")
    assert _method_calls(ok, "plan") == []
    assert _hand_written_loops(ok) == []
    assert [_enclosing_function(ok, c) for c in _time_sleeps(ok)] == ["_sleep"]
    assert _refill_stamp_classes(ok) == []
