"""The multigrid cycle never multiplies K by a vector it knows is zero:
the first pre-smoothing sweep, the first coarse visit and the first cycle
of the CG preconditioner start from the right-hand side itself.  The
results are those of the code that did — ``tests/fem/gmg_oracle.py`` —
bit for bit, cycle in float32 as the solver's is.  Against the same
cycle in float64 the mixed-precision solve takes the same number of
cycles to a solution within 1e-9.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro.fem import (GeometricMultigrid, UniformGrid, canonical_bc,
                       conjugate_gradient, gmg_preconditioner)
from repro.fem.gmg import CYCLE_DTYPE

from tests.fem import gmg_oracle


def _hierarchy(ndim: int, resolution: int, levels: int) -> GeometricMultigrid:
    grid = UniformGrid(ndim, resolution)
    coords = grid.coordinates()
    nu = np.exp(0.5 * np.sin(3 * coords[0]) * np.cos(2 * coords[-1]))
    gmg = GeometricMultigrid(grid, nu, canonical_bc(grid), max_levels=levels,
                             coarse_size=1)
    assert gmg.num_levels == levels
    return gmg


class _Counted:
    """A level operator's ``op @ x`` with every product counted."""

    def __init__(self, op, products: list):
        self.op, self.products = op, products

    def __matmul__(self, x):
        self.products.append(self.op.shape[0])
        return self.op @ x

    def diag(self):
        return self.op.diag()


@contextlib.contextmanager
def _counting(gmg):
    """The rows of every level product made inside the block, on the
    float64 operator and on its float32 copy alike."""
    products: list[int] = []
    ops = [(level.op, level.cycle_op) for level in gmg.levels]
    for level in gmg.levels:
        level.op = _Counted(level.op, products)
        level.cycle_op = _Counted(level.cycle_op, products)
    try:
        yield products
    finally:
        for level, (op, cycle_op) in zip(gmg.levels, ops):
            level.op, level.cycle_op = op, cycle_op


def _products_of_one_cycle(gmg, run, kind: str) -> list[int]:
    b = (np.random.default_rng(3).standard_normal(
        gmg.levels[0].grid.num_nodes) * ~gmg.levels[0].dirichlet
         ).astype(CYCLE_DTYPE)
    with _counting(gmg) as products:
        run(0, b, kind)
    return products


@pytest.mark.parametrize("kind,new,old", [("v", 8, 12), ("w", 15, 21),
                                          ("f", 14, 20)])
def test_a_cycle_makes_no_product_with_a_zero_vector(kind, new, old):
    """Three levels, (2, 2) smoothing.  Per level visit the old cycle
    made 2 + 1 + 2 smoother/residual products and one per coarse visit;
    the zero-guess sweep and the first coarse visit now make none."""
    gmg = _hierarchy(3, 17, 3)
    assert len(_products_of_one_cycle(gmg, gmg._cycle, kind)) == new
    assert len(_products_of_one_cycle(
        gmg, lambda *args: gmg_oracle.cycle(gmg, *args), kind)) == old


@pytest.mark.parametrize("kind", ["v", "w", "f"])
@pytest.mark.parametrize("ndim,resolution", [(2, 33), (3, 17)])
def test_solutions_equal_the_old_cycle_bitwise(kind, ndim, resolution,
                                               monkeypatch):
    gmg = _hierarchy(ndim, resolution, 3)
    u = gmg.solve(tol=1e-9, cycle=kind)
    report = gmg.last_report
    assert report.converged

    monkeypatch.setattr(
        gmg, "_cycle", lambda *args: gmg_oracle.cycle(gmg, *args))
    ref = gmg.solve(tol=1e-9, cycle=kind)
    np.testing.assert_array_equal(u, ref)
    assert report.residual_history == gmg.last_report.residual_history


@pytest.mark.parametrize("kind", ["v", "w", "f"])
@pytest.mark.parametrize("ndim,resolution", [(2, 33), (3, 17)])
def test_the_float32_cycle_is_as_good_as_the_float64_one(kind, ndim,
                                                         resolution,
                                                         monkeypatch):
    """Iterative refinement: the float64 residual decides, so the float32
    cycle converges in the float64 cycle's count to the same solution."""
    gmg = _hierarchy(ndim, resolution, 3)
    assert gmg.levels[0].cycle_op.dtype == CYCLE_DTYPE
    assert gmg.levels[0].jacobi.dtype == CYCLE_DTYPE
    u = gmg.solve(tol=1e-9, cycle=kind)
    report = gmg.last_report
    assert report.converged and u.dtype == np.float64

    monkeypatch.setattr(
        gmg, "correct", lambda r, kind: gmg_oracle.correct(gmg, r, kind))
    ref = gmg.solve(tol=1e-9, cycle=kind)
    assert report.iterations == gmg.last_report.iterations
    assert np.abs(u - ref).max() <= 1e-9


def test_no_pre_smoothing_is_the_zero_guess():
    grid = UniformGrid(2, 17)
    gmg = GeometricMultigrid(grid, np.ones(grid.shape), canonical_bc(grid),
                             n_smooth=(0, 2), coarse_size=30)
    b = np.random.default_rng(0).standard_normal(grid.num_nodes).astype(
        CYCLE_DTYPE)
    np.testing.assert_array_equal(
        gmg._cycle(0, b, "v"), gmg_oracle.cycle(gmg, 0, b, "v"))


@pytest.mark.parametrize("cycles", [1, 2])
def test_the_preconditioner_makes_no_product_with_a_zero_vector(cycles):
    """One fine-level product fewer per application, same PCG iterates."""
    gmg = _hierarchy(2, 33, 3)
    fine = gmg.levels[0]
    interior = ~fine.dirichlet
    a = fine.op.to_csr()[interior][:, interior]
    b = np.random.default_rng(4).standard_normal(a.shape[0])
    runs = []
    for make in (gmg_preconditioner, gmg_oracle.preconditioner):
        precondition, applications = make(gmg, cycles), []

        def counted(r):
            applications.append(r)
            return precondition(r)

        with _counting(gmg) as products:
            x, report = conjugate_gradient(a, b, tol=1e-10,
                                           preconditioner=counted)
        runs.append((x, report, products.count(fine.grid.num_nodes),
                     len(applications)))
    (x, report, fine_products, n), (x_old, report_old, fine_old, n_old) = runs
    assert report.converged and n == n_old > 0
    assert fine_products == fine_old - n
    np.testing.assert_array_equal(x, x_old)
    assert report.residual_history == report_old.residual_history
