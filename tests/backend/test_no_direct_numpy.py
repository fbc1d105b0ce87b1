"""Guard: hot-path array math must go through the backend dispatcher.

Walks the AST of every module in the refactored layers (``autograd``,
``nn``, ``fem``, ``multigrid``, ``distributed``) and fails if any of them
touches a NumPy attribute outside the allowlist.  Constructors, dtype
checks and index bookkeeping are exempt — they are shape metadata, not
array math — but contractions, elementwise transcendentals, reductions
and shape-shuffling must dispatch through ``repro.backend.ops`` so an
alternative backend can intercept them.

This is the enforcement half of the backend seam: without it, a stray
``np.tensordot`` silently bypasses every future accelerated backend.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

GUARDED_PACKAGES = ("autograd", "nn", "fem", "multigrid", "distributed")

# NumPy attributes that are legitimate to call directly: array/dtype
# constructors, dtype predicates, index bookkeeping and the RNG namespace.
ALLOWED = {
    # constructors / conversion
    "zeros", "ones", "empty", "full", "zeros_like", "ones_like",
    "empty_like", "full_like", "asarray", "ascontiguousarray", "array",
    "arange", "linspace",
    # dtypes and dtype predicates
    "dtype", "float16", "float32", "float64", "int32", "int64", "bool_",
    "issubdtype", "result_type", "floating", "integer", "ndarray", "generic",
    "isscalar",
    # scalar/index bookkeeping (shape metadata, not array math)
    "newaxis", "pi", "inf", "nan", "lcm", "indices", "meshgrid",
    "ravel_multi_index", "atleast_2d", "ndindex", "errstate",
    # namespaces that are setup-time, not hot-path
    "random", "polynomial", "testing",
}


def _numpy_aliases(tree: ast.Module) -> set[str]:
    """Names the module binds to the numpy package (``np``, ``numpy``)."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name == "numpy" or a.name.startswith("numpy."):
                    aliases.add((a.asname or a.name).split(".")[0])
    return aliases


def _violations(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    aliases = _numpy_aliases(tree)
    try:
        where = path.relative_to(SRC.parent)
    except ValueError:
        where = path
    bad = []
    for node in ast.walk(tree):
        # `from numpy import X` (or `from numpy.lib... import X`) binds a
        # bare name that would dodge attribute inspection — flag the
        # import itself unless every imported name is allowed.
        if isinstance(node, ast.ImportFrom) and node.module and (
                node.module == "numpy" or node.module.startswith("numpy.")):
            for a in node.names:
                if a.name not in ALLOWED:
                    bad.append(
                        f"{where}:{node.lineno}: from {node.module} "
                        f"import {a.name}")
            continue
        if not isinstance(node, ast.Attribute):
            continue
        if not isinstance(node.value, ast.Name):
            continue
        if node.value.id not in aliases:
            continue
        if node.attr not in ALLOWED:
            bad.append(f"{where}:{node.lineno}: {node.value.id}.{node.attr}")
    return bad


def _guarded_files() -> list[Path]:
    files = []
    for pkg in GUARDED_PACKAGES:
        files.extend(sorted((SRC / pkg).glob("*.py")))
    assert files, "guarded source tree not found"
    return files


@pytest.mark.parametrize("path", _guarded_files(), ids=lambda p: p.stem)
def test_no_direct_numpy_math(path: Path) -> None:
    bad = _violations(path)
    assert not bad, (
        "direct NumPy math bypasses the backend dispatcher "
        "(route through `from repro.backend import ops as B`):\n  "
        + "\n  ".join(bad))


def test_guard_catches_violations(tmp_path: Path) -> None:
    """The guard itself must flag hot-path math (meta-test)."""
    mod = tmp_path / "bad.py"
    mod.write_text(
        "import numpy as np\n"
        "def f(a, b):\n"
        "    return np.tensordot(a, b, axes=1) + np.exp(a).sum()\n")
    bad = _violations(mod)
    assert len(bad) == 2
    assert any("tensordot" in v for v in bad)
    assert any("exp" in v for v in bad)


def test_guard_catches_bare_name_imports(tmp_path: Path) -> None:
    """``from numpy import tensordot`` must not dodge the guard."""
    mod = tmp_path / "sneaky.py"
    mod.write_text(
        "from numpy import tensordot, zeros\n"
        "from numpy.lib.stride_tricks import sliding_window_view\n"
        "def f(a, b):\n"
        "    return tensordot(sliding_window_view(a, 2, 0), b, axes=1)\n")
    bad = _violations(mod)
    # tensordot and sliding_window_view flagged; zeros is an allowed
    # constructor.
    assert len(bad) == 2
    assert any("import tensordot" in v for v in bad)
    assert any("import sliding_window_view" in v for v in bad)
