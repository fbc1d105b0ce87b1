"""Distributed data-parallel training, ranks in forked processes
(paper Sec. 3.2 / Figs. 4-6).

Demonstrates:
1. worker-count independence (Eq. 15): p=1 and p=4 produce the same model;
2. the ring all-reduce communication volume 2 (p-1)/p * Nw;
3. virtual-clock strong scaling with Table 6 interconnect models;
4. distributed multigrid: a half-V cycle run over the data-parallel
   trainer, with the virtual clock reported per level visit.

Usage::

    python examples/distributed_training.py
"""

from __future__ import annotations

import numpy as np

from repro import MGDiffNet, MultigridTrainer, PoissonProblem2D
from repro.distributed import DataParallelTrainer, DPConfig, ring_allreduce
from repro.perf import AZURE_NDV2, ring_allreduce_time, measure_sample_time
from repro.utils import format_table


def main() -> None:
    problem = PoissonProblem2D(resolution=16)
    dataset = problem.make_dataset(16)

    def factory():
        return MGDiffNet(ndim=2, base_filters=8, depth=2,
                         use_batchnorm=False, rng=7)

    # ------------------------------------------------------------------ #
    print("=== Eq. 15: results independent of worker count ===")
    states = {}
    for p in (1, 2, 4):
        trainer = DataParallelTrainer(
            factory, problem, dataset,
            DPConfig(world_size=p, batch_size=8, lr=1e-3))
        result = trainer.train_epochs(16, 3)
        states[p] = trainer.model.state_dict()
        print(f"p={p}: epoch losses "
              f"{[f'{l:.6f}' for l in result.losses]}")
    drift = max(np.abs(states[1][k] - states[4][k]).max() for k in states[1])
    print(f"max parameter drift p=1 vs p=4: {drift:.2e} "
          f"(float32 rounding only)\n")
    assert drift < 1e-4, f"Eq. 15 broken: drift {drift:.2e}"

    # ------------------------------------------------------------------ #
    print("=== Ring all-reduce communication volume ===")
    nw = factory().num_weights
    rows = []
    for p in (2, 4, 8):
        bufs = [np.random.default_rng(r).standard_normal(nw)
                for r in range(p)]
        _, stats = ring_allreduce(bufs)
        rows.append([p, nw * 8, stats.bytes_sent_per_rank,
                     round(stats.theoretical_bytes_per_rank)])
    print(format_table(["p", "message bytes", "sent/rank", "2(p-1)/p * N"],
                       rows))

    # ------------------------------------------------------------------ #
    print("\n=== Virtual-clock scaling (Azure NDv2 model, measured "
          "compute) ===")
    t_sample = measure_sample_time(factory(), problem, 16, batch_size=2)
    print(f"measured compute: {t_sample * 1e3:.1f} ms/sample at 16^2")
    rows = []
    base = None
    for p in (1, 2, 4, 8):
        trainer = DataParallelTrainer(
            factory, problem, dataset.padded_to_multiple(2 * p),
            DPConfig(world_size=p, batch_size=2 * p, lr=1e-3),
            comm_time_model=lambda nbytes, ws: ring_allreduce_time(
                nbytes, ws, AZURE_NDV2),
            compute_time_per_sample=t_sample)
        result = trainer.train_epochs(16, 1)
        total = result.virtual_compute_seconds + result.virtual_comm_seconds
        base = base or total
        rows.append([p, f"{total:.3f}", f"{base / total:.2f}x"])
    print(format_table(["p", "virtual epoch (s)", "speedup"], rows))

    # ------------------------------------------------------------------ #
    print("\n=== Distributed multigrid: half-V over 4 workers ===")
    trainer = DataParallelTrainer(
        factory, problem, dataset,
        DPConfig(world_size=4, batch_size=8, lr=1e-3, restriction_epochs=2,
                 max_epochs_per_level=6),
        comm_time_model=lambda nbytes, ws: ring_allreduce_time(
            nbytes, ws, AZURE_NDV2))
    # Compute is charged at the measured host time of the slowest rank,
    # and each visit's result covers that visit only, so the per-level
    # virtual epochs compare directly.
    result = MultigridTrainer(strategy="half_v", levels=2,
                              trainer=trainer).train()
    print(format_table(
        ["level", "resolution", "phase", "epochs", "final loss",
         "virtual epoch (s)"],
        [[rec.level, rec.resolution, rec.phase, rec.result.epochs_run,
          f"{rec.result.final_loss:.6f}",
          f"{rec.result.virtual_epoch_seconds:.4f}"]
         for rec in result.records]))


if __name__ == "__main__":
    main()
