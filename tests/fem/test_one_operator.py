"""Guard: the Q1 stiffness operator is written once.

``fem/stencil.py`` builds ``K(nu)`` as its 3^d-point stencil by slice-adds
and everything else takes it from there.  COO-triplet assembly, an
autograd mat-vec, a second CG (``scipy.sparse.linalg.cg``), a second
coarsening ladder for FMG and most hand-written walks over an element's
local nodes were measured and deleted (README "Engine kill table").
Their names are rows of ``tests/denylist.py``; this walks the AST of
``src/repro/fem`` (FMG included, in ``gmg.py``) and pins who builds K
and who walks an element's local nodes.

The FEM energy loss is one fused op over that same operator applied
matrix-free (``apply_stiffness`` -> ``backend.conv_plan.conv_energy``); the
op-by-op chain on the autograd tape (a ``conv_nd`` with the derivative
kernels, ``Mul``s, axis ``sum``s) was measured
and moved to ``tests/fem/energy_oracle.py``; its names are denylist rows
too, and this pins the one op's callers.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
FILES = sorted((SRC / "fem").glob("*.py"))

# Functions outside basis.py that may walk an element's local nodes: the
# stencil builder and the load vector.
MAX_LOCAL_NODE_WALKERS = 2


def _called(node: ast.Call) -> str | None:
    return getattr(node.func, "attr", getattr(node.func, "id", None))


def _local_node_walkers(source: str) -> list[str]:
    """Names of the functions that call ``local_nodes(``."""
    return [fn.name for fn in ast.walk(ast.parse(source))
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(isinstance(n, ast.Call) and _called(n) == "local_nodes"
                    for n in ast.walk(fn))]


def test_local_nodes_are_walked_in_few_places() -> None:
    walkers = {path.name: _local_node_walkers(path.read_text())
               for path in FILES if path.name != "basis.py"}
    found = [f"{name}:{fn}" for name, fns in walkers.items() for fn in fns]
    assert len(found) <= MAX_LOCAL_NODE_WALKERS, (
        "interpolate with basis.gauss_interp and build matrices with "
        f"stencil.stencil_matrix instead of a new local-node loop: {found}")


def test_every_consumer_takes_k_from_the_one_builder() -> None:
    """``stencil_matrix`` is called for K only by ``StencilOperator``, and
    the assembled matrix, both solvers and the FMG driver go through it."""
    users = {path.name: {_called(n) for n in ast.walk(ast.parse(path.read_text()))
                         if isinstance(n, ast.Call)} for path in FILES}
    assert [name for name, calls in users.items()
            if "stencil_matrix" in calls] == ["stencil.py"]
    for name in ("assembly.py", "gmg.py", "solver.py"):
        assert "StencilOperator" in users[name], name
    assert "GeometricMultigrid" in users["gmg.py"]      # FMG's one hierarchy


def test_the_energy_loss_is_one_op_over_the_one_kernel() -> None:
    # A reduction over Gauss-point axes is the chain growing back; the
    # batch reduction ``per.sum()`` takes no axis.
    energy = ast.parse((SRC / "fem" / "energy.py").read_text())
    assert not [n.lineno for n in ast.walk(energy) if isinstance(n, ast.Call)
                and _called(n) == "sum" and (n.args or n.keywords)]
    defined, callers = [], {"apply_stiffness": [], "conv_energy": []}
    for path in sorted(SRC.rglob("*.py")):
        where = str(path.relative_to(SRC))
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.FunctionDef)
                    and node.name == "apply_stiffness"):
                defined.append(where)
            if isinstance(node, ast.FunctionDef):
                for name in callers:
                    if any(isinstance(n, ast.Call) and _called(n) == name
                           for n in ast.walk(node)):
                        callers[name].append(f"{where}:{node.name}")
    assert defined == ["fem/stencil.py"]
    assert callers["conv_energy"] == ["fem/stencil.py:apply_stiffness"]
    assert callers["apply_stiffness"] == ["fem/energy.py:forward"]
