"""Guard: Algorithm 1 is written once.

``core/trainer.py`` holds the only training step (``backward_pass``), the
only epoch loop and the only phase loop; the data-parallel trainer
overrides what a step is, the performance probes and the multigrid cycle
call in.  Three copies of the step, two of the loops and two of the
optimizer factory had grown before (and a config that silently dropped
``weight_decay``), so this walks the AST of ``src/repro/{core,distributed,
perf}`` and fails where a copy would start: a second ``.backward()`` call,
a batch sampler or an early stopper built outside the trainer, a private
optimizer factory, a data-parallel dataclass re-declaring a base field, or
``core`` importing ``distributed``.
"""

from __future__ import annotations

import ast
import dataclasses
import functools
import inspect
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
PACKAGES = ("core", "distributed", "perf")


@functools.cache
def _trees(root: Path = SRC) -> dict[str, ast.AST]:
    files = sorted(p for pkg in PACKAGES for p in (root / pkg).rglob("*.py"))
    assert files, "source tree not found"
    return {str(p.relative_to(root)): ast.parse(p.read_text(), filename=str(p))
            for p in files}


def _calls(tree: ast.AST, name: str) -> list[int]:
    """Line numbers of calls ``name(...)`` or ``<expr>.name(...)``."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None))
            == name]


def _sites(name: str, root: Path = SRC) -> list[str]:
    return [f"{path}:{line}" for path, tree in _trees(root).items()
            for line in _calls(tree, name)]


@pytest.mark.parametrize("name, count, copy", [
    ("backward", 1, "a training step outside core.trainer.backward_pass — "
                    "call it instead of re-typing forward/energy/backward"),
    ("BatchSampler", 2, "an epoch loop outside Trainer.run_epoch / "
                        "evaluate_loss — override Trainer._step instead"),
    ("EarlyStopping", 1, "a second phase loop outside Trainer._train"),
])
def test_called_in_the_trainer_only(name: str, count: int, copy: str) -> None:
    sites = _sites(name)
    assert len(sites) == count and all(
        s.startswith("core/trainer.py:") for s in sites), f"{copy}: {sites}"


def test_loops_and_optimizer_factory_are_defined_once() -> None:
    defined = [(path, node.name) for path, tree in _trees().items()
               for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef)]
    for name in ("train_epochs", "train_until_converged", "make_optimizer"):
        assert [p for p, n in defined if n == name] == ["core/trainer.py"], name
    assert not [(p, n) for p, n in defined if n == "_make_optimizer"]


def test_core_does_not_import_distributed() -> None:
    bad = [f"{path}:{node.lineno}" for path, tree in _trees().items()
           if path.startswith("core/") for node in ast.walk(tree)
           if (isinstance(node, ast.ImportFrom)
               and "distributed" in (node.module or ""))
           or (isinstance(node, ast.Import)
               and any("distributed" in a.name for a in node.names))]
    assert not bad, f"core imports distributed: {bad}"


def test_data_parallel_dataclasses_redeclare_no_base_field() -> None:
    from repro.core.trainer import TrainConfig, TrainResult
    from repro.distributed import DPConfig, DPResult

    for cls, base in ((DPConfig, TrainConfig), (DPResult, TrainResult)):
        assert issubclass(cls, base)
        inherited = {f.name for f in dataclasses.fields(base)}
        again = inherited & set(inspect.get_annotations(cls))
        assert not again, f"{cls.__name__} re-declares {sorted(again)}"


def test_guard_catches_a_second_step(tmp_path: Path) -> None:
    """The guard itself must see both call shapes (meta-test)."""
    pkg = tmp_path / "perf"
    pkg.mkdir()
    (pkg / "probe.py").write_text(
        "from x import BatchSampler\n"
        "def step(model, x):\n"
        "    loss = model(x)\n"
        "    loss.backward()\n"
        "    return BatchSampler(8, 4), loss.backward_hooks\n")
    for other in ("core", "distributed"):
        (tmp_path / other).mkdir()
        (tmp_path / other / "empty.py").write_text("")
    assert _sites("backward", tmp_path) == ["perf/probe.py:4"]
    assert _sites("BatchSampler", tmp_path) == ["perf/probe.py:5"]
