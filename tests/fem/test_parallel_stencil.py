"""The stencil mat-vec on K's stored upper half, in row blocks on the
host's cores.

``StencilOperator.blocks`` are the stored half's own coefficient array
under offsets shifted by each block's first row, and every lower diagonal
``-o`` is upper row ``o`` from column ``o`` on — views, not copies — and
``matvec`` runs them on a module thread pool into one output.  Every row
sums its diagonals in ascending offset order, as scipy's kernel does over
the full DIA matrix rebuilt below, so the split half product is that
matrix's product bit for bit, in float64 and float32, whatever the block
count, the number of concurrent callers, or a ``fork`` after the pool
exists.

The guard at the end keeps the reductions of the GMG and CG solvers and
of the operator itself (``energy``) off BLAS: a threaded ``ddot`` in the
solve loop leaves OpenBLAS's worker spinning on the core the second block
needs (``krylov.inner`` says how much).
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
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.fem import GeometricMultigrid, UniformGrid, canonical_bc, stencil
from repro.fem.stencil import StencilOperator

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def _operator(ndim: int, resolution: int, seed: int = 0,
              dtype=np.float64) -> StencilOperator:
    grid = UniformGrid(ndim, resolution)
    nu = np.exp(np.random.default_rng(seed).standard_normal(grid.shape))
    return StencilOperator(grid, nu).astype(dtype)


def _full(op: StencilOperator) -> sp.dia_matrix:
    """All 3^d diagonals of K in DIA form: data row ``-o`` holds
    ``K[j + o, j] = K[j, j + o]`` at column ``j``."""
    n, rows = op.shape[0], {}
    for o, row in zip(op.upper.offsets, op.upper.data):
        rows[o] = row
        rows[-o] = np.zeros_like(row)
        rows[-o][:n - o] = row[o:]
    offsets = sorted(rows)
    return sp.dia_matrix((np.stack([rows[o] for o in offsets]), offsets),
                         shape=op.shape)


def _split(monkeypatch, blocks: int) -> None:
    """Operators built from here on split into ``blocks`` row blocks
    (fewer if they have fewer rows)."""
    monkeypatch.setattr(stencil, "MIN_BLOCK_ROWS", 1)
    monkeypatch.setattr(stencil, "default_workers", lambda: blocks)


@settings(max_examples=60, deadline=None)
@example(ndim=3, resolution=33, blocks=5, seed=0, dtype=np.float64)
@example(ndim=3, resolution=33, blocks=2, seed=0, dtype=np.float32)
@example(ndim=1, resolution=2, blocks=5, seed=0,    # more blocks than rows
         dtype=np.float64)
@given(ndim=st.integers(1, 3), resolution=st.integers(2, 33),
       blocks=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1),
       dtype=st.sampled_from((np.float32, np.float64)))
def test_the_split_product_is_the_matrix_product_bitwise(ndim, resolution,
                                                         blocks, seed, dtype):
    with pytest.MonkeyPatch.context() as mp:
        _split(mp, blocks)
        op = _operator(ndim, resolution, seed, dtype)
    n = op.shape[0]
    assert len(op.blocks) == min(blocks, n)
    assert [(lo, hi) for lo, hi, _ in op.blocks] == [
        (n * i // len(op.blocks), n * (i + 1) // len(op.blocks))
        for i in range(len(op.blocks))]
    assert len(op.upper.offsets) == (3 ** ndim + 1) // 2 or resolution == 2
    x = np.random.default_rng(seed).standard_normal(n).astype(dtype)
    ref = _full(op) @ x
    assert ref.dtype == dtype
    np.testing.assert_array_equal(op.matvec(x), ref)
    np.testing.assert_array_equal(op @ x.reshape(op.grid.shape), ref)


def test_blocks_are_views_of_the_coefficients(monkeypatch):
    _split(monkeypatch, 3)
    op = _operator(3, 9, dtype=np.float32)
    assert len(op.blocks) == 3 and len(op.upper.offsets) == 14
    rows = dict(zip(op.upper.offsets, op.upper.data))
    for lo, _, calls in op.blocks:
        *lower, (offsets, data) = calls
        assert data is op.upper.data
        np.testing.assert_array_equal(offsets, op.upper.offsets + lo)
        assert len(lower) == 13
        for (offset,), diagonal in lower:
            o = lo - offset
            assert np.shares_memory(diagonal, rows[o])
            assert diagonal.base is not None
            np.testing.assert_array_equal(diagonal[0], rows[o][o:])


def test_the_operator_stores_only_the_upper_half():
    op = _operator(3, 9)
    assert op.upper.offsets.min() == 0
    k = op.to_csr()
    np.testing.assert_array_equal(k.toarray(), _full(op).toarray())
    assert (k != k.T).nnz == 0
    low = op.astype(np.float32)
    assert low.dtype == np.float32 and low.upper.data.dtype == np.float32
    np.testing.assert_array_equal(low.upper.data,
                                  op.upper.data.astype(np.float32))
    assert low.matvec(np.ones(op.shape[0])).dtype == np.float32


def test_the_block_count_follows_the_row_count(monkeypatch):
    """A grid too small to pay for a thread hand-off stays whole."""
    monkeypatch.setattr(stencil, "default_workers", lambda: 4)
    rows = stencil.MIN_BLOCK_ROWS
    for r in (17, 33, 41):
        assert len(_operator(3, r).blocks) == max(1, min(4, r ** 3 // rows))
    assert len(_operator(3, 41, dtype=np.float32).blocks) > 1
    monkeypatch.setattr(stencil, "default_workers", lambda: 1)
    assert len(_operator(3, 41).blocks) == 1


def test_a_vector_of_the_wrong_size_is_refused(monkeypatch):
    _split(monkeypatch, 2)
    op = _operator(2, 9)
    with pytest.raises(ValueError, match="dimension mismatch"):
        op.matvec(np.ones(op.shape[0] - 1))


def test_concurrent_callers_all_get_their_own_product(monkeypatch):
    _split(monkeypatch, 3)
    op = _operator(3, 17)
    xs = np.random.default_rng(1).standard_normal((4, op.shape[0]))
    refs = [_full(op) @ x for x in xs]
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
# Guard: no BLAS reduction in the solve loops or the operator
# --------------------------------------------------------------------- #
SOLVERS = ("fem/gmg.py", "fem/krylov.py", "fem/stencil.py")


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
