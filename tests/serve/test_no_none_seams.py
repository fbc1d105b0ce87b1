"""Guard: tracing in ``repro.serve`` is a null object, never ``None``.

Every layer that can open a span holds ``NULL_TRACER`` until
``enable_telemetry`` swaps the real tracer in, and every span slot
(``_RouteState.trace``, ``PredictRequest.trace``/``trace_queue``)
defaults to ``NULL_SPAN`` — so span sites are unconditional and traced,
sampled-out and telemetry-off requests run the same code.  This walks
the AST of every module under ``src/repro/serve/`` and fails on an
``is None`` / ``is not None`` test of a tracer or span, which is how the
``if span is not None: span.finish(...)`` fork (~50 copies before it
was removed) would grow back.

Public functions that accept ``tracer=None`` normalise once with
``tracer = tracer or NULL_TRACER`` (the null tracer is falsy by
design); that is a boolean fallback, not a ``None`` comparison, and
passes.  ``Tracer.start(parent=None)`` means "new root" and tests
``parent``, which is not a guarded name.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SERVE = Path(__file__).resolve().parents[2] / "src" / "repro" / "serve"

GUARDED = {"tracer", "trace", "trace_queue", "trace_parent"}


def _guarded(node: ast.AST) -> str | None:
    """The guarded name an operand refers to (``x`` / ``obj.x``)."""
    name = (node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute) else None)
    if name is not None and (name in GUARDED or name.endswith("span")):
        return name
    return None


def _is_none(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def _violations(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    bad = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for op, a, b in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Is, ast.IsNot)):
                continue
            name = (_guarded(a) if _is_none(b)
                    else _guarded(b) if _is_none(a) else None)
            if name is not None:
                kind = "is None" if isinstance(op, ast.Is) else "is not None"
                bad.append(f"{path.name}:{node.lineno}: {name} {kind}")
    return bad


def _serve_modules() -> list[Path]:
    files = sorted(SERVE.rglob("*.py"))
    assert files, "serve source tree not found"
    return files


@pytest.mark.parametrize(
    "path", _serve_modules(),
    ids=lambda p: str(p.relative_to(SERVE).with_suffix("")))
def test_no_none_test_on_tracer_or_span(path: Path) -> None:
    bad = _violations(path)
    assert not bad, (
        "tracer/span compared against None — hold NULL_TRACER / NULL_SPAN "
        "and call it unconditionally:\n  " + "\n  ".join(bad))


def test_null_objects_are_used_by_production_modules() -> None:
    """The null objects must be what the layers actually hold, not a
    fixture only their own unit test imports."""
    users = [p.name for p in _serve_modules()
             if p.parent == SERVE and "NULL_TRACER" in p.read_text()]
    assert {"fleet.py", "server.py", "batching.py", "executor.py",
            "tiling.py"} <= set(users)


def test_guard_catches_violations(tmp_path: Path) -> None:
    """The guard itself must flag the seam idiom (meta-test)."""
    mod = tmp_path / "bad.py"
    mod.write_text(
        "def f(self, tracer=None, trace_parent=None):\n"
        "    aspan = None\n"
        "    if tracer is not None and self.trace is not None:\n"
        "        aspan = tracer.start('x', parent=trace_parent)\n"
        "    if None is aspan:\n"
        "        return\n"
        "    if req.trace_queue is not None:\n"
        "        req.trace_queue.finish()\n")
    bad = _violations(mod)
    assert len(bad) == 4
    assert sum("is not None" in v for v in bad) == 3


def test_guard_allows_the_normalisation_and_other_nones(tmp_path: Path) -> None:
    mod = tmp_path / "ok.py"
    mod.write_text(
        "def f(tracer=None, parent=None, telemetry=None):\n"
        "    tracer = tracer or NULL_TRACER\n"
        "    if parent is None or telemetry is not None:\n"
        "        return tracer.start('x', parent=parent)\n"
        "    if span:\n"
        "        span.finish()\n")
    assert _violations(mod) == []
