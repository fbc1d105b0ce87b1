"""EQ15 — worker-count independence of data-parallel training (paper
Sec. 3.2, Eq. 15).

'Modulo rounding errors during gradient communication, the above scheme
guarantees that the solution will be independent of the number of
workers.'  We train the same problem with p = 1, 2, 4 simulated workers
— fixed epochs at one resolution, and a whole half-V multigrid cycle
(Sec. 3.1.2) driven through the data-parallel trainer — and measure the
parameter drift, plus the ring all-reduce traffic volume against its
theoretical 2 (p-1)/p N bound.
"""

from __future__ import annotations

import sys

import numpy as np

from repro import MGDiffNet, MultigridTrainer, PoissonProblem2D
from repro.distributed import DataParallelTrainer, DPConfig, ring_allreduce

try:
    from .common import bench_cli, report, write_bench_json
except ImportError:
    from common import bench_cli, report, write_bench_json

HEADER = ["world_size", "max_param_drift", "max_rel_loss_gap"]
GATE = 1e-4     # float32 rounding scale only


def _factory():
    return MGDiffNet(ndim=2, base_filters=8, depth=2, use_batchnorm=False,
                     rng=77)


def _epochs(trainer):
    return trainer.train_epochs(16, 3).losses


def _half_v_cycle(trainer):
    result = MultigridTrainer(strategy="half_v", levels=2,
                              trainer=trainer).train()
    return [loss for rec in result.records for loss in rec.result.losses]


def _run(train=_epochs):
    """Drift and loss gap of p = 2, 4 workers against p = 1 after
    ``train(trainer)``, which returns the losses it saw."""
    problem = PoissonProblem2D(resolution=16)
    dataset = problem.make_dataset(16)
    states, losses = {}, {}
    for p in (1, 2, 4):
        t = DataParallelTrainer(
            _factory, problem, dataset,
            DPConfig(world_size=p, batch_size=8, lr=1e-3,
                     restriction_epochs=2, max_epochs_per_level=4))
        losses[p] = train(t)
        states[p] = t.model.state_dict()
    rows = []
    for p in (2, 4):
        drift = max(float(np.abs(states[1][k] - states[p][k]).max())
                    for k in states[1])
        loss_gap = max(abs(a - b) / abs(a)
                       for a, b in zip(losses[1], losses[p]))
        rows.append([p, f"{drift:.2e}", f"{loss_gap:.2e}"])
    return rows


def _gate(rows) -> bool:
    return all(float(drift) < GATE and float(gap) < GATE
               for _, drift, gap in rows)


def test_eq15_worker_invariance(benchmark):
    rows = benchmark.pedantic(_run, rounds=1, iterations=1)
    report("eq15_invariance", HEADER, rows)
    assert _gate(rows)


def test_eq15_worker_invariance_over_a_multigrid_cycle(benchmark):
    rows = benchmark.pedantic(_run, args=(_half_v_cycle,), rounds=1,
                              iterations=1)
    report("eq15_invariance_half_v", HEADER, rows)
    assert _gate(rows)


def test_eq15_ring_traffic(benchmark):
    """Traffic per rank tracks the bandwidth-optimal 2 (p-1)/p N."""
    nw = _factory().num_weights

    def run():
        rows = []
        for p in (2, 4, 8, 16):
            bufs = [np.zeros(nw) for _ in range(p)]
            _, stats = ring_allreduce(bufs)
            ratio = stats.bytes_sent_per_rank / stats.theoretical_bytes_per_rank
            rows.append([p, stats.bytes_sent_per_rank,
                         round(stats.theoretical_bytes_per_rank),
                         round(ratio, 4)])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report("eq15_ring_traffic",
           ["world_size", "bytes_per_rank", "theoretical", "ratio"], rows)
    for row in rows:
        assert 0.95 < row[3] < 1.05


if __name__ == "__main__":
    args = bench_cli(
        "bench_eq15_invariance",
        extra_args=lambda p: p.add_argument(
            "--json", default=None, metavar="PATH",
            help="also write the rows as a JSON artifact (used by CI)"))
    tables = {"eq15_invariance": _run(),
              "eq15_invariance_half_v": _run(_half_v_cycle)}
    for name, rows in tables.items():
        report(name, HEADER, rows)
    ok = all(_gate(rows) for rows in tables.values())
    if args.json:
        write_bench_json(
            args.json, "eq15_invariance",
            {name: [dict(zip(HEADER, (p, float(drift), float(gap))))
                    for p, drift, gap in rows]
             for name, rows in tables.items()},
            gate="pass" if ok else "fail")
        print(f"wrote {args.json}")
    sys.exit(0 if ok else 1)
