"""The stencil mat-vec in row blocks on the host's cores.

``StencilOperator.blocks`` are the DIA matrix's own coefficient array
under offsets shifted by each block's first row — views, not copies — and
``matvec`` runs them on a module thread pool into one output.  Every row
sums its diagonals in the order the whole matrix does, so the split
product is ``matrix @ x`` bit for bit, whatever the block count, the
number of concurrent callers, or a ``fork`` after the pool exists.

The guard at the end keeps the GMG and CG solvers' reductions off BLAS:
a threaded ``ddot`` in the solve loop leaves OpenBLAS's worker spinning
on the core the second block needs (``krylov.inner`` says how much).
"""

from __future__ import annotations

import ast
import multiprocessing
import os
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.fem import GeometricMultigrid, UniformGrid, canonical_bc, stencil
from repro.fem.stencil import StencilOperator

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def _operator(ndim: int, resolution: int, seed: int = 0) -> StencilOperator:
    grid = UniformGrid(ndim, resolution)
    nu = np.exp(np.random.default_rng(seed).standard_normal(grid.shape))
    return StencilOperator(grid, nu)


def _split(monkeypatch, blocks: int) -> None:
    """Operators built from here on split into ``blocks`` row blocks
    (fewer if they have fewer rows)."""
    monkeypatch.setattr(stencil, "MIN_BLOCK_ROWS", 1)
    monkeypatch.setattr(stencil, "default_workers", lambda: blocks)


@settings(max_examples=40, deadline=None)
@example(ndim=3, resolution=33, blocks=5, seed=0)
@example(ndim=1, resolution=2, blocks=5, seed=0)   # more blocks than rows
@given(ndim=st.integers(1, 3), resolution=st.integers(2, 33),
       blocks=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1))
def test_the_split_product_is_the_matrix_product_bitwise(ndim, resolution,
                                                         blocks, seed):
    with pytest.MonkeyPatch.context() as mp:
        _split(mp, blocks)
        op = _operator(ndim, resolution, seed)
    n = op.shape[0]
    assert len(op.blocks) == min(blocks, n)
    x = np.random.default_rng(seed).standard_normal(n)
    ref = op.matrix @ x
    np.testing.assert_array_equal(op.matvec(x), ref)
    np.testing.assert_array_equal(op @ x.reshape(op.grid.shape), ref)
    for lo, rows in op.blocks:
        np.testing.assert_array_equal(rows @ x, ref[lo:lo + rows.shape[0]])


def test_blocks_are_views_of_the_coefficients(monkeypatch):
    _split(monkeypatch, 3)
    op = _operator(3, 9)
    assert len(op.blocks) == 3
    for _, rows in op.blocks:
        assert np.shares_memory(rows.data, op.matrix.data)


def test_the_block_count_follows_the_row_count(monkeypatch):
    """A grid too small to pay for a thread hand-off stays whole."""
    monkeypatch.setattr(stencil, "default_workers", lambda: 4)
    rows = stencil.MIN_BLOCK_ROWS
    assert len(_operator(3, 17).blocks) == max(1, min(4, 17 ** 3 // rows))
    assert len(_operator(3, 33).blocks) == max(1, min(4, 33 ** 3 // rows))
    monkeypatch.setattr(stencil, "default_workers", lambda: 1)
    assert len(_operator(3, 33).blocks) == 1


def test_a_vector_of_the_wrong_size_is_refused(monkeypatch):
    _split(monkeypatch, 2)
    op = _operator(2, 9)
    with pytest.raises(ValueError, match="dimension mismatch"):
        op.matvec(np.ones(op.shape[0] - 1))


def test_concurrent_callers_all_get_their_own_product(monkeypatch):
    _split(monkeypatch, 3)
    op = _operator(3, 17)
    xs = np.random.default_rng(1).standard_normal((4, op.shape[0]))
    refs = [op.matrix @ x for x in xs]
    wrong: list[int] = []
    start = threading.Barrier(len(xs))

    def call(i: int) -> None:
        start.wait()
        for _ in range(50):
            if not np.array_equal(op.matvec(xs[i]), refs[i]):
                wrong.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=call, args=(i,))
                   for i in range(len(xs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not wrong


def _solve_in_child() -> None:
    grid = UniformGrid(3, 17)
    gmg = GeometricMultigrid(grid, np.ones(grid.shape), canonical_bc(grid))
    assert len(gmg.levels[0].op.blocks) > 1
    gmg.solve(tol=1e-8)
    os._exit(0 if gmg.last_report.converged else 1)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_a_forked_child_gets_a_pool_of_its_own(monkeypatch):
    """The child inherits the pool object but none of its threads; a
    mat-vec queued on it would wait forever."""
    _split(monkeypatch, 2)
    _operator(3, 9).matvec(np.ones(9 ** 3))        # the parent's pool runs
    assert any(t.name.startswith("stencil-matvec")
               for t in threading.enumerate())
    child = multiprocessing.get_context("fork").Process(target=_solve_in_child)
    child.start()
    child.join(timeout=60)
    if child.is_alive():
        child.kill()
        child.join()
        pytest.fail("forked child hung on the parent's mat-vec pool")
    assert child.exitcode == 0


# --------------------------------------------------------------------- #
# Guard: no BLAS reduction in the solve loops
# --------------------------------------------------------------------- #
SOLVERS = ("fem/gmg.py", "fem/krylov.py")


def _blas_reductions(source: str, where: str) -> list[str]:
    bad = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        text = ast.unparse(node.func)
        if (text in ("B.norm", "np.dot", "np.vdot", "np.inner")
                or text.startswith("np.linalg.")
                or text.endswith((".dot", "vdot"))):
            bad.append(f"{where}:{node.lineno}: {text}(...)")
    return bad


def test_the_solvers_reduce_without_blas():
    bad = [v for rel in SOLVERS
           for v in _blas_reductions((SRC / rel).read_text(), rel)]
    assert not bad, ("a BLAS reduction in a solve loop — use "
                     "fem.krylov.inner:\n  " + "\n  ".join(bad))


def test_guard_catches_blas_reductions():
    """The guard itself must flag every idiom it names (meta-test)."""
    bad = _blas_reductions(
        "n = float(B.norm(r))\n"
        "m = np.linalg.norm(r)\n"
        "rz = r.dot(z)\n"
        "pap = np.vdot(p, ap)\n"
        "q = np.dot(p, p)\n"
        "ok = inner(r, r)\n", "x.py")
    assert len(bad) == 5


def test_one_cpu_count():
    """The host's core count is read in ``backend/tuning.py`` only."""
    users = sorted(str(p.relative_to(SRC)) for p in SRC.rglob("*.py")
                   if "sched_getaffinity" in p.read_text())
    assert users == ["backend/tuning.py"]
