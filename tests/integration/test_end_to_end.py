"""End-to-end integration: training pipelines reproduce the paper's
qualitative claims at downscaled sizes."""

import numpy as np
import pytest

from repro import (MGDiffNet, PoissonProblem2D, PoissonProblem3D,
                   Trainer, TrainConfig, MultigridTrainer, MGTrainConfig)
from repro.core import compare_fields
from repro.distributed import DataParallelTrainer, DPConfig


class TestTrainingApproachesFEM:
    @pytest.mark.slow
    def test_2d_training_approaches_fem_solution(self):
        """The data-free variational training drives predictions toward
        the FEM reference (Tables 3/4 claim, downscaled)."""
        problem = PoissonProblem2D(16)
        dataset = problem.make_dataset(4)
        model = MGDiffNet(ndim=2, base_filters=8, depth=2, rng=11)
        trainer = Trainer(model, problem, dataset,
                          TrainConfig(batch_size=4, lr=3e-3, patience=15,
                                      min_delta=1e-4))
        trainer.train_until_converged(16, max_epochs=150)

        errs = []
        for omega in dataset.omegas:
            pred = model.predict(problem, omega)
            ref = problem.fem_solve(omega)
            errs.append(compare_fields(pred, ref).rel_l2)
        assert float(np.mean(errs)) < 0.12

    @pytest.mark.slow
    def test_multigrid_final_loss_close_to_base(self):
        """Table 1 claim: MG strategies converge to a loss comparable to
        full training at the finest resolution."""
        problem = PoissonProblem2D(16)
        dataset = problem.make_dataset(8)
        cfg = MGTrainConfig(batch_size=4, lr=3e-3, restriction_epochs=3,
                            max_epochs_per_level=60, patience=8,
                            min_delta=5e-4)

        base_model = MGDiffNet(ndim=2, base_filters=8, depth=2, rng=21)
        base_tr = MultigridTrainer(base_model, problem, dataset,
                                   strategy="half_v", levels=2, config=cfg)
        base = base_tr.train_baseline()

        mg_model = MGDiffNet(ndim=2, base_filters=8, depth=2, rng=21)
        mg_tr = MultigridTrainer(mg_model, problem, dataset,
                                 strategy="half_v", levels=2, config=cfg)
        mg = mg_tr.train()

        assert mg.final_loss <= min(base.losses) * 1.25

    def test_3d_pipeline_runs(self):
        """3D code path exercised end to end (tiny)."""
        problem = PoissonProblem3D(8)
        dataset = problem.make_dataset(4)
        model = MGDiffNet(ndim=3, base_filters=4, depth=1, rng=2)
        tr = MultigridTrainer(model, problem, dataset, strategy="half_v",
                              levels=2,
                              config=MGTrainConfig(batch_size=4, lr=3e-3,
                                                   restriction_epochs=1,
                                                   max_epochs_per_level=3,
                                                   patience=2))
        res = tr.train()
        assert np.isfinite(res.final_loss)
        u = model.predict(problem, dataset.omegas[0])
        assert u.shape == (8, 8, 8)


class TestDistributedIntegration:
    def test_distributed_equals_serial_after_training(self):
        """Eq. 15 at integration scale: full training loop, p=1 vs p=2."""
        problem = PoissonProblem2D(8)
        dataset = problem.make_dataset(8)

        def factory():
            return MGDiffNet(ndim=2, base_filters=4, depth=1,
                             use_batchnorm=False, rng=5)

        res = {}
        for p in (1, 2):
            t = DataParallelTrainer(factory, problem, dataset,
                                    DPConfig(world_size=p, batch_size=4,
                                             lr=1e-3))
            res[p] = (t.train_epochs(8, 3), t.model.state_dict())
        np.testing.assert_allclose(res[1][0].losses, res[2][0].losses,
                                   rtol=1e-5)
        for k in res[1][1]:
            np.testing.assert_allclose(res[1][1][k], res[2][1][k], atol=2e-5)

    def test_virtual_speedup_increases_with_workers(self):
        """Simulated cluster shows decreasing virtual epoch time in p
        (Figs. 9/10 shape at micro scale)."""
        from repro.perf import AZURE_NDV2, ring_allreduce_time

        problem = PoissonProblem2D(8)
        dataset = problem.make_dataset(8)

        def factory():
            return MGDiffNet(ndim=2, base_filters=4, depth=1, rng=5)

        times = {}
        for p in (1, 4):
            t = DataParallelTrainer(
                factory, problem, dataset,
                DPConfig(world_size=p, batch_size=8, lr=1e-3),
                comm_time_model=lambda nbytes, ws: ring_allreduce_time(
                    nbytes, ws, AZURE_NDV2),
                compute_time_per_sample=0.1)
            r = t.train_epochs(8, 1)
            times[p] = r.virtual_compute_seconds + r.virtual_comm_seconds
        assert times[4] < times[1] / 3.0
