"""Every ``def`` under ``src/repro`` is entered, or the ledger says why not.

One fresh interpreter runs every surface of the system with a trace
function on every thread (``sys.settrace`` + ``threading.settrace``,
installed before any pool thread starts, so no thread escapes it) and
reports the code objects it entered:

* the CLI: ``info``, ``scaling``, ``solve`` (direct with ``--output``,
  cg, gmg), ``train`` (multigrid, validation, checkpoint), ``predict``
  (against FEM with ``--output``; tiled, ``--stream``, a thread
  executor), ``serve`` (one server; a sharded fleet with metrics and
  trace files) and ``trace summarize``;
* multigrid training under all four cycle strategies (the CLI's
  ``--strategy`` choices), a data-parallel epoch and tiled prediction;
* the lazy backend (``REPRO_BACKEND=lazy``): a GMG solve and an epoch;
* each bench workload's ``setup``, a short ``measure`` and ``check``;
* ``examples/serving.py``, ``examples/serving_fleet.py`` and the
  README's Training section.

Nothing else is called by hand: a surface is what a user or the
benchmark runs.  What only a ``benchmarks/`` script reproducing a paper
figure, table or ablation reaches (adaptation for Table 2, the penalty
loss for the BC-imposition ablation) is a ``paper`` row of the ledger,
and ``test_every_paper_carrier_imports`` collects those scripts so a
deletion cannot strand their imports.

Ranks stay in the probe's process (``default_workers`` is patched to
1): a forked rank's calls would not come back.  The distributed example
takes ~30 s, so what only it reaches is covered by ledger rows.

Every ``def`` in ``src/repro`` is found by walking the AST and keyed by
its file and first line (a decorated ``def``'s first decorator line,
which is what ``co_firstlineno`` reports).  The set of defs never
entered must equal ``tests/reach_ledger.py``'s rows exactly: a def that
goes unreached without a row is code to delete (or a surface this probe
is missing), and a row whose def is now entered, or gone, is stale.
Two kinds of def are exempt: ``__repr__``, and a def whose body (after
its docstring) only raises ``NotImplementedError``.

An op class that nothing applies is an unreached ``forward``, so this
also pins the autograd op set.
"""

from __future__ import annotations

import ast
import functools
import importlib
import importlib.util
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

from tests.reach_ledger import KINDS, ROWS, Row

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"


# --------------------------------------------------------------------- #
# The defs
# --------------------------------------------------------------------- #
def _raises_not_implemented(node: ast.AST) -> bool:
    body = node.body
    if (body and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)):
        body = body[1:]
    if len(body) != 1 or not isinstance(body[0], ast.Raise):
        return False
    exc = body[0].exc
    if isinstance(exc, ast.Call):
        exc = exc.func
    return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"


def _exempt(node: ast.AST) -> bool:
    return node.name == "__repr__" or _raises_not_implemented(node)


def defs(package: Path = PACKAGE) -> dict[tuple[str, int], tuple[str, str]]:
    """``(file, first line) -> (module, qualname)`` for every non-exempt
    ``def`` under ``package`` (nested and method defs included)."""
    out: dict[tuple[str, int], tuple[str, str]] = {}
    for path in sorted(package.rglob("*.py")):
        rel = path.relative_to(package.parent).with_suffix("")
        module = ".".join(rel.parts).removesuffix(".__init__")

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    walk(child, f"{prefix}{child.name}.")
                elif isinstance(child, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in
                                                  child.decorator_list])
                    if not _exempt(child):
                        out[(str(path), first)] = (
                            module, prefix + child.name)
                    walk(child, f"{prefix}{child.name}.<locals>.")
                else:
                    walk(child, prefix)

        walk(ast.parse(path.read_text()), "")
    return out


def unreached(reached: set[tuple[str, int]],
              package: Path = PACKAGE) -> set[tuple[str, str]]:
    """``(module, qualname)`` of every def under ``package`` whose
    ``(file, first line)`` is not in ``reached``."""
    return {name for key, name in defs(package).items() if key not in reached}


# --------------------------------------------------------------------- #
# The surfaces (run by ``probe()`` in a fresh interpreter)
# --------------------------------------------------------------------- #
def _cli(tmp: Path) -> None:
    from repro.cli import main

    ck, small = str(tmp / "ck.npz"), ["--base-filters", "2", "--depth", "1"]
    spans = str(tmp / "spans.jsonl")
    runs = [
        ["info"],
        ["scaling", "--max-workers", "8"],
        ["solve", "--resolution", "9", "--output", str(tmp / "s.vti")],
        ["solve", "--resolution", "9", "--solver", "cg"],
        ["solve", "--resolution", "9", "--solver", "gmg"],
        ["train", "--resolution", "8", "--samples", "2", "--levels", "2",
         "--max-epochs", "1", "--batch-size", "2", "--validate",
         "--checkpoint", ck, *small],
        ["predict", "--checkpoint", ck, "--compare-fem",
         "--omega", "0.5,1,0,-1", "--output", str(tmp / "p.vti")],
        ["predict", "--checkpoint", ck, "--tile", "4", "--stream",
         "--executor", "thread", "--executor-workers", "2"],
        ["serve", "--checkpoint", f"m={ck}", "--requests", "6",
         "--repeat", "2", "--max-pending", "2", "--tile-threshold", "32"],
        ["serve", "--checkpoint", f"m={ck}", "--requests", "6",
         "--shards", "2", "--replicas", "2", "--shard-timeout", "30",
         "--metrics-file", str(tmp / "metrics.json"),
         "--trace-file", spans],
        ["trace", "summarize", spans],
    ]
    for argv in runs:
        assert main(argv) == 0, argv


def _training() -> None:
    import numpy as np

    from repro import (MGDiffNet, MGTrainConfig, MultigridTrainer,
                       PoissonProblem2D)
    from repro.distributed import DataParallelTrainer, DPConfig
    from repro.serve import tiled_predict

    problem = PoissonProblem2D(8)
    dataset = problem.make_dataset(4)

    def model(**kwargs):
        return MGDiffNet(ndim=2, base_filters=2, depth=1, rng=3, **kwargs)

    config = MGTrainConfig(batch_size=2, restriction_epochs=1,
                           max_epochs_per_level=1, patience=10 ** 6)
    for strategy in ("v", "w", "f", "half_v"):
        MultigridTrainer(model(), problem, dataset, strategy=strategy,
                         levels=2, config=config).train()
    DataParallelTrainer(lambda: model(use_batchnorm=False), problem, dataset,
                        DPConfig(world_size=2, batch_size=2)
                        ).train_epochs(8, 1)
    tiled_predict(model(), problem,
                  np.random.default_rng(0).uniform(-1, 1, 4), tile=8)


def _lazy() -> None:
    """``REPRO_BACKEND=lazy``: a GMG solve and a training epoch."""
    from repro import MGDiffNet, PoissonProblem2D, Trainer, TrainConfig
    from repro.backend import use_backend
    from repro.cli import main

    with use_backend("lazy"):
        assert main(["solve", "--resolution", "9", "--solver", "gmg"]) == 0
        problem = PoissonProblem2D(8)
        Trainer(MGDiffNet(ndim=2, base_filters=2, depth=1, rng=3), problem,
                problem.make_dataset(2), TrainConfig(batch_size=2)
                ).train_epochs(8, 1)


def _workloads() -> None:
    from bench.workloads import WORKLOADS

    for name in WORKLOADS:
        mod = importlib.import_module(f"bench.workloads.{name}")
        state = mod.setup(mod.make_inputs(1, 0))
        try:
            measured = mod.measure(state, 0.5)
            assert mod.check(state, measured) == [], name
        finally:
            mod.teardown(state)


def _examples() -> None:
    import runpy

    argv = sys.argv
    try:
        for script in ("serving.py", "serving_fleet.py"):
            sys.argv = [script, "--requests", "16"]
            runpy.run_path(str(ROOT / "examples" / script),
                           run_name="__main__")
    finally:
        sys.argv = argv


def _readme() -> None:
    section = (ROOT / "README.md").read_text().split("## Training", 1)[1]
    source = re.search(r"```python\n(.*?)\n```", section, re.S).group(1)
    exec(compile(source, "<README Training>", "exec"), {})


def probe(tmp: Path) -> set[tuple[str, int]]:
    """Run every surface with every thread traced; return the
    ``(file, first line)`` of each code object under ``src/repro``
    entered."""
    import contextlib
    import io
    import threading

    entered: set = set()

    def tracer(frame, event, arg):
        entered.add(frame.f_code)

    threading.settrace(tracer)
    sys.settrace(tracer)
    import repro.distributed.data_parallel as dp

    dp.default_workers = lambda: 1
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            _cli(tmp)
            _training()
            _lazy()
            _workloads()
            _examples()
            _readme()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    prefix = str(PACKAGE)
    return {(c.co_filename, c.co_firstlineno) for c in entered
            if c.co_filename.startswith(prefix)}


def defined_subclasses(base: type) -> set[str]:
    """Names of the ``base`` subclasses of every ``repro`` module."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)
    found, todo = set(), [base]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub.__module__.startswith("repro."):
                found.add(sub.__name__)
    return found


# --------------------------------------------------------------------- #
# The tests
# --------------------------------------------------------------------- #
def _reached(tmp_path: Path) -> set[tuple[str, int]]:
    out = tmp_path / "reached.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]))
    done = subprocess.run(
        [sys.executable, "-m", "tests.test_reach", str(out)], cwd=ROOT,
        env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    return {tuple(key) for key in json.loads(out.read_text())}


def test_every_def_is_entered_or_in_the_ledger(tmp_path) -> None:
    found = unreached(_reached(tmp_path))
    ledger = {(row.module, row.qualname) for row in ROWS}
    missing = sorted(found - ledger)
    stale = sorted(ledger - found)
    assert not missing and not stale, (
        "defs that no surface enters (delete them, or paste a row and "
        "give it a kind and a carrier):\n"
        + "".join(f"    Row({m!r}, {q!r}, \"?\", \"?\"),\n"
                  for m, q in missing)
        + "rows whose def is entered or gone (delete the row):\n"
        + "".join(f"    {m} {q}\n" for m, q in stale))


PLANTED = """\
import functools


def top():
    def inner():
        pass
    return inner


class Owner:
    def method(self):
        pass

    @property
    @functools.cache
    def decorated(self):
        pass

    def __repr__(self):
        return "Owner()"

    def abstract(self):
        \"\"\"Subclasses answer.\"\"\"
        raise NotImplementedError
"""


def test_a_planted_module_is_walked_def_by_def(tmp_path) -> None:
    """Every def of a scratch module is found under its qualname and
    keyed as its code object is, nested and decorated ones included."""
    package = tmp_path / "repro"
    package.mkdir()
    (package / "planted.py").write_text(PLANTED)
    found = defs(package)
    assert sorted(q for _, q in found.values()) == [
        "Owner.decorated", "Owner.method", "top", "top.<locals>.inner"]
    assert {m for m, _ in found.values()} == {"repro.planted"}
    assert unreached(set(), package) == set(found.values())
    spec = importlib.util.spec_from_file_location(
        "planted", package / "planted.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    codes = [module.top.__code__, module.top().__code__,
             module.Owner.method.__code__,
             module.Owner.decorated.fget.__wrapped__.__code__]
    keys = {(c.co_filename, c.co_firstlineno) for c in codes}
    assert keys == set(found)
    assert unreached(keys, package) == set()


@functools.cache
def _defined(path: Path) -> set[str]:
    tree = ast.parse(path.read_text())
    return {node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


@functools.cache
def _open_items() -> set[str]:
    return set(re.findall(r"^- \*\*(\d+)\.", (ROOT / "ROADMAP.md").read_text(),
                          re.M))


@pytest.mark.parametrize("row", ROWS, ids=lambda r: f"{r.module}:{r.qualname}")
def test_every_row_names_its_carrier(row: Row) -> None:
    assert row.kind in KINDS, row
    assert row.entry is None or row.kind == "paper", row
    if row.kind == "reserved":
        item = re.fullmatch(r"ROADMAP (\d+)(\([a-z]\))?", row.carrier)
        assert item and item.group(1) in _open_items(), row
        return
    path, *names = row.carrier.split("::")
    assert (ROOT / path).is_file(), row
    if row.kind == "paper":
        assert re.fullmatch(r"benchmarks/bench_\w+\.py", path), row
        assert not names, row
        source = (ROOT / path).read_text()
        if row.entry is not None:
            assert row.entry in source, row
        else:
            name = [n for n in row.qualname.split(".")
                    if not n.startswith("__")][-1]
            assert re.search(rf"\b{name}\b", source), row
        return
    if row.kind == "example":
        assert path.startswith("examples/") and not names, row
    elif row.kind == "traced":
        assert path.startswith("bench/workloads/") and names == ["trace"], row
    else:
        assert path.startswith("tests/") and names, row
    assert set(names) <= _defined(ROOT / path), row


def test_every_paper_carrier_imports() -> None:
    """The probe no longer enters what only the paper scripts run, so a
    deletion that strands one of their imports fails here instead."""
    carriers = sorted({row.carrier for row in ROWS if row.kind == "paper"})
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q",
         "-p", "no:cacheprovider", *carriers], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]


def test_rows_are_unique() -> None:
    keys = [(row.module, row.qualname) for row in ROWS]
    assert len(set(keys)) == len(keys)


if __name__ == "__main__":
    import tempfile

    out = Path(sys.argv[1])     # the examples overwrite sys.argv
    with tempfile.TemporaryDirectory() as tmp:
        reached = probe(Path(tmp))
    out.write_text(json.dumps(sorted(reached)))
