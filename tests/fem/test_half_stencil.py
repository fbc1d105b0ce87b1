"""K stored as its upper half, and the multigrid cycle run in float32
under the float64 residual.

* ``assemble_stiffness`` mirrors the stored half into the CSR the full
  3^d-diagonal builder (``stencil_oracle``) made, array for array: same
  structure, same bits.
* ``GeometricMultigrid.solve`` is iterative refinement: the float64
  residual decides, so for random ω the mixed-precision V/W/F solve meets
  ``tol`` in float64 in exactly the cycles the float64 cycle
  (``gmg_oracle``, ``exact=True``) takes; FMG's per-level counts and the
  MG-preconditioned CG's iterations do not move either.

(The product itself — half in row blocks against the full DIA matrix,
bitwise in float32 and float64 — is ``test_parallel_stencil.py``.)
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import PoissonProblem3D
from repro.fem import (GaussRule, GeometricMultigrid, UniformGrid,
                       assemble_stiffness, canonical_bc,
                       conjugate_gradient, gmg_preconditioner)
from repro.fem.gmg import CYCLE_DTYPE, full_multigrid_solve

from tests.fem import gmg_oracle, stencil_oracle

TOL = 1e-8


def _same_csr(a, b) -> None:
    for name in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


@settings(max_examples=40, deadline=None)
@example(ndim=3, resolution=2, order=2, seed=0)
@example(ndim=3, resolution=17, order=2, seed=0)
@given(ndim=st.integers(1, 3), resolution=st.integers(2, 17),
       order=st.sampled_from((2, 3)), seed=st.integers(0, 2 ** 32 - 1))
def test_assembly_is_the_full_builders_csr(ndim, resolution, order, seed):
    grid = UniformGrid(ndim, resolution)
    nu = np.exp(np.random.default_rng(seed).standard_normal(grid.shape))
    rule = GaussRule.create(ndim, order)
    _same_csr(assemble_stiffness(grid, nu, rule),
              stencil_oracle.stiffness(grid, nu, rule))


def _float64_cycle(monkeypatch) -> None:
    """Every hierarchy corrects with the float64 cycle from here on."""
    monkeypatch.setattr(GeometricMultigrid, "correct",
                        lambda self, r, cycle="v":
                        gmg_oracle.correct(self, r, cycle))


@settings(max_examples=6, deadline=None)
@example(resolution=33, omega=(0.8, -0.9, 0.7, -1.0))
@given(resolution=st.sampled_from((17, 33)),
       omega=st.tuples(*[st.floats(-1, 1)] * 4))
def test_mixed_solves_take_the_float64_cycle_count(resolution, omega):
    problem = PoissonProblem3D(resolution)
    omega = np.array(omega)
    gmg = GeometricMultigrid(problem.grid(resolution),
                             problem.nu(omega, resolution),
                             problem.bc(resolution))
    assert gmg.levels[1].cycle_op.dtype == CYCLE_DTYPE
    for kind in "vwf":
        u = gmg.solve(tol=TOL, cycle=kind)
        mixed = gmg.last_report
        with pytest.MonkeyPatch.context() as mp:
            _float64_cycle(mp)
            ref = gmg.solve(tol=TOL, cycle=kind)
        exact = gmg.last_report
        assert exact.converged, (kind, exact.residual_history)
        assert mixed.converged and mixed.residual < TOL
        assert mixed.iterations == exact.iterations, kind
        assert u.dtype == np.float64
        assert np.abs(u - ref).max() <= 1e-9


@pytest.mark.parametrize("ndim,resolution,levels", [(2, 65, 4), (3, 33, 3)])
@pytest.mark.parametrize("seed", [0, 1])
def test_fmg_cycles_per_level_are_unchanged(ndim, resolution, levels, seed,
                                            monkeypatch):
    grid = UniformGrid(ndim, resolution)
    coords = grid.coordinates()
    a, b = np.random.default_rng(seed).uniform(-1, 1, 2)
    nu = np.exp(a * np.sin(3 * coords[0]) + b * np.cos(2 * coords[-1]))
    bc = canonical_bc(grid)
    u, mixed = full_multigrid_solve(grid, nu, bc, levels=levels, tol=1e-9)
    _float64_cycle(monkeypatch)
    ref, exact = full_multigrid_solve(grid, nu, bc, levels=levels, tol=1e-9)
    assert mixed.cycles_per_level == exact.cycles_per_level
    assert mixed.final_residual < 1e-9
    assert np.abs(u - ref).max() <= 1e-9


def test_mg_preconditioned_cg_iterations_are_unchanged(monkeypatch):
    grid = UniformGrid(2, 65)
    coords = grid.coordinates()
    nu = np.exp(0.5 * np.sin(3 * coords[0]) * np.cos(2 * coords[-1]))
    gmg = GeometricMultigrid(grid, nu, canonical_bc(grid), coarse_size=128)
    interior = ~gmg.levels[0].dirichlet
    a = gmg.levels[0].op.to_csr()[interior][:, interior]
    b = np.random.default_rng(5).standard_normal(a.shape[0])
    runs = []
    for patch in (False, True):
        if patch:
            _float64_cycle(monkeypatch)
        x, report = conjugate_gradient(
            a, b, tol=1e-10, preconditioner=gmg_preconditioner(gmg))
        assert report.converged
        runs.append((x, report.iterations))
    (x, it), (x_ref, it_ref) = runs
    assert it == it_ref
    assert np.abs(x - x_ref).max() <= 1e-9 * np.abs(x_ref).max()
