"""Guard: Algorithm 1 is written once.

``core/trainer.py`` holds the only training step (``backward_pass``), the
only epoch loop and the only phase loop; the data-parallel trainer
overrides what a step is, the performance probes and the multigrid cycle
call in.  Three copies of the step, two of the loops and two of the
optimizer factory had grown before (and a config that silently dropped
``weight_decay``).  Their names outside ``core/trainer.py`` (a
``.backward()`` call, a batch sampler, an early stopper) and ``core``
importing ``distributed`` are rows of ``tests/denylist.py``; this pins
how often the trainer itself calls them, that the loops and the
optimizer factory are defined once, there, and that a data-parallel
dataclass re-declares no base field.
"""

from __future__ import annotations

import ast
import dataclasses
import functools
import inspect
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
PACKAGES = ("core", "distributed", "perf")


@functools.cache
def _trees() -> dict[str, ast.AST]:
    files = sorted(p for pkg in PACKAGES for p in (SRC / pkg).rglob("*.py"))
    assert files, "source tree not found"
    return {str(p.relative_to(SRC)): ast.parse(p.read_text(), filename=str(p))
            for p in files}


def _calls(tree: ast.AST, name: str) -> list[int]:
    """Line numbers of calls ``name(...)`` or ``<expr>.name(...)``."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None))
            == name]


def _sites(name: str) -> list[str]:
    return [f"{path}:{line}" for path, tree in _trees().items()
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


def test_adam_is_the_one_optimizer() -> None:
    """Training is Adam at a fixed learning rate: the factory builds it from
    ``config.lr`` alone, and no other ``Optimizer`` is defined in ``repro``."""
    from repro.core.trainer import TrainConfig, make_optimizer
    from repro.nn import Parameter
    from repro.optim import Adam, Optimizer
    from tests.autograd.test_op_reach import defined_subclasses

    opt = make_optimizer(TrainConfig(lr=3e-3), [Parameter(np.ones(2))])
    assert type(opt) is Adam and opt.lr == 3e-3
    assert defined_subclasses(Optimizer) == {"Adam"}


def test_data_parallel_dataclasses_redeclare_no_base_field() -> None:
    from repro.core.trainer import TrainConfig, TrainResult
    from repro.distributed import DPConfig, DPResult

    for cls, base in ((DPConfig, TrainConfig), (DPResult, TrainResult)):
        assert issubclass(cls, base)
        inherited = {f.name for f in dataclasses.fields(base)}
        again = inherited & set(inspect.get_annotations(cls))
        assert not again, f"{cls.__name__} re-declares {sorted(again)}"
