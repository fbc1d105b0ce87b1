"""solve_gmg3d — classical geometric multigrid to a stated tolerance.

``GeometricMultigrid(grid65, nu(omega), bc).solve(tol=1e-8, cycle="v")``
at 65^3 (274 625 unknowns, 4 levels).  Each worker part builds the
hierarchy for one omega and solves it repeatedly; the headline operation
is solving the three-omega set (sum of the per-omega median solve
times), and work items are unknowns solved.  Omega is uniform in
[-0.5, 0.5]^4: every such field converges in 8 or 9 V-cycles, so seeds
are comparable (the paper's full box [-3, 3]^4 leaves some omega
unconverged after 60 cycles, and [-1, 1]^4 spreads 8-20 cycles).

The classical baseline of Sec. 4.3.  It bypasses autograd, nn and serve
entirely, so a conv or fleet change must leave it flat.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro import PoissonProblem3D
from repro.backend import use_backend
from repro.backend.lazy import jit_enabled
from repro.fem.assembly import assemble_load, assemble_stiffness
from repro.fem.gmg import GeometricMultigrid
from repro.fem.quadrature import GaussRule
from repro.fem.solver import FEMSolver

from .. import harness
from . import WORKLOADS, Measured
from .common import TRACE_NAMES, rng_for

RESOLUTION = 65
CROSS_CHECK_RESOLUTION = 17
OMEGA_BOX = 0.5
TOL = 1e-8
CROSS_CHECK_TOL = 1e-5
LAZY_TOL = 1e-6

PER_LAYER = (
    "fem.assemble_stiffness_s", "fem.assemble_load_s",
    "fem.gmg_build_s.min", "fem.gmg_build_s.median", "fem.gmg_levels",
    "fem.gmg_cycles", "fem.gmg_cycle_ms", "fem.gmg_rel_residual",
    "backend.lazy.gmg_solve_ratio", "backend.lazy.jit_available",
) + TRACE_NAMES


@dataclass
class State:
    problem: object
    omega: np.ndarray
    gmg: GeometricMultigrid
    build_s: float


def make_inputs(seed: int, part: int) -> dict[str, np.ndarray]:
    omegas = rng_for(seed, 0, 0).uniform(
        -OMEGA_BOX, OMEGA_BOX, (WORKLOADS["solve_gmg3d"].parts, 4))
    return {"omega": omegas[part], "omegas": omegas}


def _build(problem, omega, resolution: int = RESOLUTION):
    return GeometricMultigrid(problem.grid(resolution),
                              problem.nu(omega, resolution),
                              problem.bc(resolution))


def _solve(gmg: GeometricMultigrid) -> np.ndarray:
    return gmg.solve(tol=TOL, cycle="v")


def setup(inputs) -> State:
    problem = PoissonProblem3D(RESOLUTION)
    t0 = time.perf_counter()
    gmg = _build(problem, inputs["omega"])
    build_s = time.perf_counter() - t0
    _solve(gmg)                                     # warm-up solve
    return State(problem=problem, omega=inputs["omega"], gmg=gmg,
                 build_s=build_s)


def teardown(state: State) -> None:
    pass


def measure(state: State, seconds: float) -> Measured:
    reports = []

    def one_solve() -> None:
        _solve(state.gmg)
        reports.append(state.gmg.last_report)

    walls = harness.run_for(one_solve, seconds, min_ops=2)
    unknowns = state.gmg.levels[0].grid.num_nodes
    return Measured(op_ms=[w * 1e3 for w in walls],
                    items=float(unknowns) * len(walls), wall_s=sum(walls),
                    attempted=len(walls), keep={"reports": reports})


def _unconverged(reports) -> list[str]:
    return [f"solve stopped at relative residual {r.residual} after "
            f"{r.iterations} cycles"
            for r in reports if not (r.converged and r.residual < TOL)]


def _cross_check(problem, omega) -> list[str]:
    """GMG against the direct FEM solve on a grid small enough for LU."""
    r = CROSS_CHECK_RESOLUTION
    u_gmg = _solve(_build(problem, omega, r))
    u_fem = FEMSolver(problem.grid(r)).solve(
        problem.nu(omega, r), problem.bc(r), method="direct")
    err = float(np.abs(u_gmg - u_fem).max())
    if not err <= CROSS_CHECK_TOL:
        return [f"max|GMG - FEM| at {r}^3 = {err} > {CROSS_CHECK_TOL}"]
    return []


def check(state: State, measured: Measured) -> list[str]:
    return (_unconverged(measured.keep["reports"])
            + _cross_check(state.problem, state.omega))


# --------------------------------------------------------------------- #
# Traced pass
# --------------------------------------------------------------------- #
def trace(state: State, inputs, seconds: float, rec):
    """All three omegas of the run in one process (the worker is part 0).
    GMG exposes no public call below ``solve``, so the layer spans are
    assembly, hierarchy build and solve, each a root of its own — there
    is no glue between them to leave unattributed.  The traced solve
    must return the untraced solution exactly."""
    problem = state.problem
    omegas = inputs["omegas"]
    grid, rule = problem.grid(RESOLUTION), GaussRule.create(3, 2)

    builds, cycles, cycle_ms, residuals = [state.build_s], [], [], []
    untraced_s = traced_s = 0.0
    failures = []
    for i, omega in enumerate(omegas):
        if i == 0:
            gmg = state.gmg
        else:
            with rec.span("fem.gmg_build") as span:
                gmg = _build(problem, omega)
            builds.append(span.end - span.start)
            _solve(gmg)
        t0 = time.perf_counter()
        reference = _solve(gmg)
        wall = time.perf_counter() - t0
        untraced_s += wall
        report = gmg.last_report
        cycles.append(report.iterations)
        cycle_ms.append(wall * 1e3 / max(report.iterations, 1))
        residuals.append(report.residual)
        failures += _unconverged([report])
        with rec.span("fem.gmg_solve") as span:
            traced = _solve(gmg)
        traced_s += span.end - span.start
        if not np.array_equal(traced, reference):
            failures.append("traced solve differs from the untraced one")

    nu = problem.nu(omegas[0], RESOLUTION)
    with rec.span("fem.assemble_stiffness") as k_span:
        assemble_stiffness(grid, nu, rule)
    with rec.span("fem.assemble_load") as b_span:
        assemble_load(grid, None, rule)

    # The last hierarchy again under the lazy (fusing, JIT) backend.
    with use_backend("lazy"):
        _solve(gmg)
        with rec.span("backend.lazy.solve") as lazy_span:
            lazy = _solve(gmg)
    if not np.abs(lazy - reference).max() <= LAZY_TOL:
        failures.append("lazy-backend solve differs from eager")
    failures += _cross_check(problem, omegas[0])

    metrics = {
        "fem.assemble_stiffness_s": k_span.end - k_span.start,
        "fem.assemble_load_s": b_span.end - b_span.start,
        "fem.gmg_build_s.min": min(builds),
        "fem.gmg_build_s.median": harness.median(builds),
        "fem.gmg_levels": gmg.num_levels,
        "fem.gmg_cycles": sum(cycles),
        "fem.gmg_cycle_ms": harness.median(cycle_ms),
        "fem.gmg_rel_residual": max(residuals),
        "backend.lazy.gmg_solve_ratio":
            (lazy_span.end - lazy_span.start) / wall,
        "backend.lazy.jit_available": int(jit_enabled()),
        "trace_overhead_frac": traced_s / untraced_s - 1.0,
        "trace_unattributed_frac": harness.unattributed_frac(rec.spans),
    }
    return metrics, failures
