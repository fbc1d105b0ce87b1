"""Guard: the Q1 stiffness operator is written once.

``fem/stencil.py`` builds ``K(nu)`` as its 3^d-point stencil by slice-adds
and everything else takes it from there.  COO-triplet assembly, an
autograd mat-vec, a second CG (``scipy.sparse.linalg.cg``), a second
coarsening ladder for FMG and most hand-written walks over an element's
local nodes were measured and deleted (README "Engine kill table"); this
walks the AST of ``src/repro/fem`` (and the FMG re-export) and fails where
they would grow back.

The FEM energy loss is one fused op over that same operator applied
matrix-free (``apply_stiffness`` -> ``backend.conv_plan.conv_energy``); the
op-by-op chain on the autograd tape (a ``conv_nd`` with the derivative
kernels, ``Mul``s, axis ``sum``s, an autograd Neumann term) was measured
and moved to ``tests/fem/energy_oracle.py``, and must not grow back either.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
FILES = sorted((SRC / "fem").glob("*.py")) + [SRC / "multigrid" / "fmg.py"]

BANNED_NAMES = {
    "coo_matrix": "COO triplet assembly",
    "scatter_add": "index-array accumulation",
    "cg": "a second CG (scipy's)",
    "_interp_numpy": "a second Gauss interpolation",
    "_element_node_indices": "index-array assembly",
    "_restrict_problem": "a second coarsening ladder",
}
# Functions outside basis.py that may walk an element's local nodes: the
# stencil builder and the load vector.
MAX_LOCAL_NODE_WALKERS = 2


def _called(node: ast.Call) -> str | None:
    return getattr(node.func, "attr", getattr(node.func, "id", None))


def _violations(source: str, where: str) -> list[str]:
    tree = ast.parse(source, filename=where)
    bad = []
    for node in ast.walk(tree):
        # Name.id, Attribute.attr, FunctionDef.name and import alias.name
        names = [getattr(node, f, None) for f in ("id", "attr", "name")]
        bad += [f"{where}:{node.lineno}: {BANNED_NAMES[n]} ({n})"
                for n in names if n in BANNED_NAMES]
        if (isinstance(node, ast.Attribute) and node.attr == "at"
                and getattr(node.value, "attr", None) == "add"):
            bad.append(f"{where}:{node.lineno}: index-array accumulation (add.at)")
        if isinstance(node, ast.Call) and _called(node) == "backward":
            bad.append(f"{where}:{node.lineno}: autograd inside fem (.backward())")
        if (isinstance(node, ast.Call) and where == "gmg.py"
                and _called(node) == "assemble_stiffness"):
            bad.append(f"{where}:{node.lineno}: CSR round trip in a GMG level")
    return bad


def _local_node_walkers(source: str) -> list[str]:
    """Names of the functions that call ``local_nodes(``."""
    return [fn.name for fn in ast.walk(ast.parse(source))
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(isinstance(n, ast.Call) and _called(n) == "local_nodes"
                    for n in ast.walk(fn))]


def test_the_deleted_copies_stay_deleted() -> None:
    bad = [v for path in FILES for v in _violations(path.read_text(), path.name)]
    assert not bad, (
        "a second K(nu), CG or coarsening ladder is growing back — go "
        "through fem/stencil.py, fem/krylov.py and fem/gmg.py instead:\n  "
        + "\n  ".join(bad))


def test_local_nodes_are_walked_in_few_places() -> None:
    walkers = {path.name: _local_node_walkers(path.read_text())
               for path in FILES if path.name != "basis.py"}
    assert not walkers["neumann.py"], "a face load is assemble_load on the face grid"
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
            if "stencil_matrix" in calls] == ["assembly.py", "stencil.py"]
    for name in ("assembly.py", "gmg.py", "solver.py"):
        assert "StencilOperator" in users[name], name
    assert "GeometricMultigrid" in users["gmg.py"]      # FMG's one hierarchy


def _chain_violations(source: str) -> list[str]:
    """Idioms of the op-by-op energy chain in ``fem/energy.py``: a conv or
    an interpolation on the tape, a reduction over Gauss-point axes (the
    batch reduction ``per.sum()`` takes no axis), the autograd flux term."""
    bad = []
    for node in ast.walk(ast.parse(source)):
        names = [getattr(node, f, None) for f in ("id", "attr", "name")]
        bad += [f"{node.lineno}: {n}" for n in names
                if n in ("conv_nd", "neumann_energy", "gauss_interp")]
        if (isinstance(node, ast.Call) and _called(node) == "sum"
                and (node.args or node.keywords)):
            bad.append(f"{node.lineno}: .sum(axis)")
    return bad


def test_the_energy_loss_is_one_op_over_the_one_kernel() -> None:
    bad = _chain_violations((SRC / "fem" / "energy.py").read_text())
    assert not bad, (
        "the op-by-op energy chain is growing back in fem/energy.py — the "
        f"loss is apply_stiffness plus a load vector: {bad}")
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


def test_guard_catches_the_old_copies() -> None:
    """The guard itself must flag every idiom it names (meta-test)."""
    bad = _violations(
        "import scipy.sparse.linalg as spla\n"
        "from scipy.sparse.linalg import cg\n"
        "def assemble(grid, nu):\n"
        "    node_idx = _element_node_indices(grid)\n"
        "    np.add.at(b, node_idx[0], v)\n"
        "    B.scatter_add(b, node_idx[0], v)\n"
        "    return sp.coo_matrix((vals, (rows, cols))).tocsr()\n"
        "def matvec(u):\n"
        "    energy(u).backward()\n"
        "    return spla.cg(k, u.grad)\n"
        "def build(g, nu):\n"
        "    return assemble_stiffness(g, nu)\n", "gmg.py")
    kinds = [line.split(": ", 1)[1] for line in bad]
    assert sum("second CG" in k for k in kinds) == 2
    assert sum("index-array" in k for k in kinds) == 3
    assert sum("COO" in k for k in kinds) == 1
    assert sum("autograd" in k for k in kinds) == 1
    assert sum("round trip" in k for k in kinds) == 1
    assert _local_node_walkers(
        "def f(d):\n    return local_nodes(d)\ndef g():\n    pass\n") == ["f"]
    chain = _chain_violations(
        "from ..autograd import Tensor, conv_nd\n"
        "def per_sample(u, nu):\n"
        "    grads = conv_nd(u, dker)\n"
        "    nu_b = gauss_interp(nu, rule)\n"
        "    energy = (grads * grads * nu_b).sum(axis=(1, 2)) * 0.5\n"
        "    return energy + neumann_energy(u, grid, bcs)\n"
        "def __call__(u, nu):\n"
        "    return per_sample(u, nu).sum()\n")
    assert sorted(v.split(": ")[1] for v in chain) == [
        ".sum(axis)", "conv_nd", "conv_nd", "gauss_interp", "neumann_energy"]
