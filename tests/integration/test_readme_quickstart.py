"""The quickstart snippets must run: README.md and ``repro.__doc__``.

Both once called ``DiffusivityDataset(problem, n_samples=32, seed=0)``,
a ``TypeError`` on the first line a new user pastes.  Each snippet is
extracted from where it is published and executed up to and including
the ``MultigridTrainer(...)`` construction — everything but the
``train()`` call, so the check stays in the millisecond range.  The
README's Training section (the three trainer compositions, at toy size)
is executed whole.
"""

from __future__ import annotations

import ast
import re
import textwrap
from pathlib import Path

import pytest

import repro

README = Path(__file__).resolve().parents[2] / "README.md"


def _readme_snippet() -> str:
    section = README.read_text().split("## Quickstart", 1)[1]
    return re.search(r"<<'PY'\n(.*?)\nPY\n", section, re.S).group(1)


def _docstring_snippet() -> str:
    block = repro.__doc__.split("Quickstart::", 1)[1]
    return textwrap.dedent(block)


@pytest.mark.parametrize("snippet", [_readme_snippet, _docstring_snippet],
                         ids=["README", "repro.__doc__"])
def test_quickstart_runs_up_to_the_trainer(snippet) -> None:
    source = snippet()
    body = []
    for node in ast.parse(source).body:
        body.append(node)
        if (isinstance(node, ast.Assign)
                and "MultigridTrainer(" in ast.get_source_segment(source,
                                                                  node)):
            break
    else:
        pytest.fail("quickstart no longer constructs a MultigridTrainer")
    scope: dict = {}
    exec(compile(ast.Module(body, type_ignores=[]), "<quickstart>", "exec"),
         scope)
    assert len(scope["dataset"]) == 32
    assert scope["trainer"].levels == 3


def test_training_section_runs(capsys) -> None:
    section = README.read_text().split("## Training", 1)[1]
    source = re.search(r"```python\n(.*?)\n```", section, re.S).group(1)
    scope: dict = {}
    exec(compile(source, "<README Training>", "exec"), scope)
    assert [rec.level for rec in scope["result"].records] == [1, 2, 1]
    assert len(ast.literal_eval(capsys.readouterr().out)) == 3
