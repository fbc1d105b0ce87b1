"""The mutant table stays runnable between runs of ``python -m tests.mutate``.

Running the table takes minutes; this checks in milliseconds what rots
first as the code moves: each snippet still occurs exactly once in its
file, the mutated file still parses (a syntax error would "kill" a
mutant without any test catching it), and each killing test exists.
"""

from __future__ import annotations

import ast
import functools
from pathlib import Path

import pytest

from tests.denylist import ROWS
from tests.mutants import MUTANTS, Mutant
from tests.mutate import stale
from tests.test_denylist import _row_id

ROOT = Path(__file__).resolve().parents[1]


@functools.cache
def _defined(path: str) -> set[str]:
    tree = ast.parse((ROOT / path).read_text())
    return {node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def test_names_are_unique() -> None:
    names = [m.name for m in MUTANTS]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_snippet_occurs_once_and_the_mutant_parses(mutant: Mutant) -> None:
    assert not stale([mutant]), "stale snippet: update the row"
    assert mutant.new != mutant.old
    source = (ROOT / mutant.file).read_text()
    ast.parse(source.replace(mutant.old, mutant.new))


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_every_killing_test_exists(mutant: Mutant) -> None:
    assert mutant.killers
    for test in mutant.killers:
        test, _, param = test.partition("[")
        path, *names = test.split("::")
        assert (ROOT / path).is_file(), test
        assert set(names) <= _defined(path), test
        if param:      # only denylist rows are named by parameter
            assert path == "tests/test_denylist.py", test
            assert param[:-1] in {_row_id(row) for row in ROWS}, test
