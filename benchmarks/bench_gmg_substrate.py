"""SUBSTRATE — geometric multigrid solver cycles (paper Sec. 2.3 / Fig. 3).

The numerical-linear-algebra machinery that inspires MGDiffNet's training
schedule: V / W / F cycles of the classic GMG solver on the
variable-coefficient Poisson problem, plus FMG (the solver-level analogue
of Half-V training) and GMG-preconditioned CG.

Shape checks (textbook multigrid facts the paper's Sec. 2.3 recounts):
* iteration counts independent of resolution;
* W/F converge in no more cycles than V;
* FMG reaches discretization-level accuracy with few fine-grid cycles;
* MG-preconditioned CG crushes plain CG.
"""

from __future__ import annotations

import sys
import time

import numpy as np

from repro.data import LogPermeabilityField
from repro.fem import (UniformGrid, GeometricMultigrid, assemble_stiffness,
                       canonical_bc, conjugate_gradient, gmg_preconditioner)
from repro.multigrid import full_multigrid_solve

try:
    from .common import bench_cli, report, write_bench_json
except ImportError:
    from common import bench_cli, report, write_bench_json

OMEGA = np.array([0.3105, 1.5386, 0.0932, -1.2442])
FIELD = LogPermeabilityField(2)


def _problem(res):
    grid = UniformGrid(2, res)
    return grid, FIELD.evaluate(OMEGA, grid), canonical_bc(grid)


def _run_cycles():
    rows = []
    for res in (33, 65, 129):
        grid, nu, bc = _problem(res)
        for cycle in ("v", "w", "f"):
            gmg = GeometricMultigrid(grid, nu, bc, coarse_size=128)
            t0 = time.perf_counter()
            gmg.solve(tol=1e-9, cycle=cycle)
            dt = time.perf_counter() - t0
            rows.append([res - 1, cycle, gmg.num_levels,
                         gmg.last_report.iterations,
                         round(dt * 1e3, 1)])
    return rows


def _gate_cycles(rows) -> bool:
    by = {(r[0], r[1]): r[3] for r in rows}
    # Resolution independence per cycle type.
    counts = [[by[(n, cycle)] for n in (32, 64, 128)] for cycle in "vwf"]
    # W and F converge in no more cycles than V.
    return (all(max(c) - min(c) <= 3 and max(c) <= 15 for c in counts)
            and all(by[(n, "w")] <= by[(n, "v")] and by[(n, "f")] <= by[(n, "v")]
                    for n in (32, 64, 128)))


def _run_fmg():
    grid, nu, bc = _problem(65)
    _, res = full_multigrid_solve(grid, nu, bc, levels=4, tol=1e-9)
    gmg = GeometricMultigrid(grid, nu, bc)
    gmg.solve(tol=1e-9)
    return ([[r, c] for r, c in zip(res.resolutions, res.cycles_per_level)]
            + [["cold_start_finest", gmg.last_report.iterations]])


def _gate_fmg(rows) -> bool:
    return rows[-2][1] <= rows[-1][1]


def _run_mg_cg():
    grid, nu, bc = _problem(65)
    k = assemble_stiffness(grid, nu)
    interior = ~bc.mask.ravel()
    k_ii = k[interior][:, interior].tocsr()
    b = -(k @ bc.lift().ravel())[interior]
    _, plain = conjugate_gradient(k_ii, b, tol=1e-10)
    gmg = GeometricMultigrid(grid, nu, bc, coarse_size=128)
    _, mgcg = conjugate_gradient(k_ii, b, tol=1e-10,
                                 preconditioner=gmg_preconditioner(gmg))
    return [["plain CG", plain.iterations],
            ["MG-preconditioned CG", mgcg.iterations]]


def _gate_mg_cg(rows) -> bool:
    (_, plain_iters), (_, mg_iters) = rows
    return mg_iters < plain_iters / 4 and mg_iters <= 15


# table name -> (header, run, gate)
TABLES = {
    "gmg_cycles": (["elements_per_dim", "cycle", "levels", "iterations",
                    "time_ms"], _run_cycles, _gate_cycles),
    "gmg_fmg": (["level_resolution", "cycles"], _run_fmg, _gate_fmg),
    "gmg_preconditioned_cg": (["solver", "iterations"], _run_mg_cg,
                              _gate_mg_cg),
}


def _check(name, benchmark=None) -> tuple[list, bool]:
    header, run, gate = TABLES[name]
    rows = benchmark.pedantic(run, rounds=1, iterations=1) if benchmark else run()
    report(name, header, rows)
    return rows, gate(rows)


def test_gmg_cycle_comparison(benchmark):
    assert _check("gmg_cycles", benchmark)[1]


def test_fmg_fine_cycle_counts(benchmark):
    assert _check("gmg_fmg", benchmark)[1]


def test_mg_preconditioned_cg(benchmark):
    assert _check("gmg_preconditioned_cg", benchmark)[1]


if __name__ == "__main__":
    args = bench_cli(
        "bench_gmg_substrate",
        extra_args=lambda p: p.add_argument(
            "--json", default=None, metavar="PATH",
            help="also write the rows as a JSON artifact (used by CI)"))
    checked = {name: _check(name) for name in TABLES}
    ok = all(passed for _, passed in checked.values())
    if args.json:
        write_bench_json(
            args.json, "gmg_substrate",
            {name: [dict(zip(TABLES[name][0], row)) for row in rows]
             for name, (rows, _) in checked.items()},
            gate="pass" if ok else "fail")
        print(f"wrote {args.json}")
    sys.exit(0 if ok else 1)
