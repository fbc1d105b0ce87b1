"""Guard: execution engines are chosen from shape, never from switches.

There is one conv engine whose geometry follows from the signature, the
tile engine takes its tile size from the caller's memory budget, and
there is one eager backend — an audit (README "Engine kill table") found
every switch that overrode those choices losing on some benchmark
workload.
This walks the AST of every module under ``src/repro/`` and fails on an
environment read outside the two seams that remain (the backend name in
``backend/registry.py``, the JIT's ``REPRO_JIT_*`` in ``backend/lazy/``),
which is how ``REPRO_CONV_PLAN``-style knobs would grow back; and it
pins that ``repro.backend`` exports no mode setter or autotuner.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

ENV_ALLOWED = ("backend/registry.py", "backend/lazy/")


def _env_reads(path: Path) -> list[str]:
    """``os.environ`` / ``os.getenv`` uses in one module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [f"{path.name}:{node.lineno}: os.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr in ("environ", "getenv")
            and isinstance(node.value, ast.Name) and node.value.id == "os"]


def _modules() -> list[Path]:
    files = sorted(SRC.rglob("*.py"))
    assert files, "source tree not found"
    return files


@pytest.mark.parametrize(
    "path", _modules(), ids=lambda p: str(p.relative_to(SRC).with_suffix("")))
def test_no_env_read_outside_the_allow_list(path: Path) -> None:
    if str(path.relative_to(SRC)).startswith(ENV_ALLOWED):
        return
    bad = _env_reads(path)
    assert not bad, (
        "environment switch outside backend/registry.py (REPRO_BACKEND) "
        "and backend/lazy/ (REPRO_JIT_*) — derive the choice from the "
        "inputs instead:\n  " + "\n  ".join(bad))


def test_backend_exports_no_mode_setter_or_autotuner() -> None:
    import repro.backend

    bad = [name for name in repro.backend.__all__
           if "autotune" in name
           or (name.startswith("set_") and name.endswith("_mode"))]
    assert not bad, f"engine switches exported from repro.backend: {bad}"


def test_guard_catches_env_reads(tmp_path: Path) -> None:
    """The guard itself must flag both read idioms (meta-test)."""
    mod = tmp_path / "bad.py"
    mod.write_text(
        "import os\n"
        "_mode = os.environ.get('REPRO_CONV_PLAN', 'auto')\n"
        "threads = os.getenv('REPRO_THREADS')\n"
        "cpus = os.cpu_count()\n")
    assert len(_env_reads(mod)) == 2
