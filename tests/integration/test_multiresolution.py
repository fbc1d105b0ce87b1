"""Multi-resolution transfer: the premise of multigrid training (Fig. 1).

A fully convolutional network trained at a coarse resolution must be a
useful warm start at finer resolutions — 'the forward pass of the
coefficients through the network itself becomes an excellent starting
point for ... solving the PDE at a higher resolution' (Sec. 3.1.2).
"""

import numpy as np
import pytest

from repro import MGDiffNet, PoissonProblem2D, Trainer, TrainConfig
from repro.multigrid import resample_linear


@pytest.fixture(scope="module")
def setup():
    problem = PoissonProblem2D(16)
    dataset = problem.make_dataset(8)
    return problem, dataset


class TestCoarseToFineTransfer:
    def test_coarse_training_lowers_fine_loss(self, setup):
        """Training only at 8^2 improves the (never-seen) 16^2 loss."""
        problem, dataset = setup
        model = MGDiffNet(ndim=2, base_filters=8, depth=2, rng=17)
        trainer = Trainer(model, problem, dataset,
                          TrainConfig(batch_size=8, lr=3e-3))
        fine_loss_before = trainer.evaluate_loss(16)
        trainer.train_epochs(8, 40)  # coarse-only training
        fine_loss_after = trainer.evaluate_loss(16)
        assert fine_loss_after < fine_loss_before * 0.8

    def test_fine_training_lowers_coarse_loss(self, setup):
        """The transfer works in the restriction direction too."""
        problem, dataset = setup
        model = MGDiffNet(ndim=2, base_filters=8, depth=2, rng=18)
        trainer = Trainer(model, problem, dataset,
                          TrainConfig(batch_size=8, lr=3e-3))
        coarse_before = trainer.evaluate_loss(8)
        trainer.train_epochs(16, 40)
        coarse_after = trainer.evaluate_loss(8)
        assert coarse_after < coarse_before * 0.8

    def test_predictions_consistent_across_resolutions(self, setup):
        """After training at both levels, the fine prediction restricted
        to the coarse grid correlates strongly with the coarse
        prediction (they approximate the same continuous field)."""
        problem, dataset = setup
        model = MGDiffNet(ndim=2, base_filters=8, depth=2, rng=19)
        trainer = Trainer(model, problem, dataset,
                          TrainConfig(batch_size=8, lr=3e-3))
        trainer.train_epochs(8, 25)
        trainer.train_epochs(16, 25)
        omega = dataset.omegas[0]
        u_fine = model.predict(problem, omega, resolution=16)
        u_coarse = model.predict(problem, omega, resolution=8)
        u_fine_restricted = resample_linear(u_fine, 8)
        corr = np.corrcoef(u_fine_restricted.ravel(), u_coarse.ravel())[0, 1]
        assert corr > 0.9

    def test_warm_start_converges_faster_at_fine(self, setup):
        """Epochs-to-threshold at 16^2: coarse-pretrained vs cold."""
        problem, dataset = setup

        def epochs_to(threshold, pretrain):
            model = MGDiffNet(ndim=2, base_filters=8, depth=2, rng=20)
            trainer = Trainer(model, problem, dataset,
                              TrainConfig(batch_size=8, lr=3e-3))
            if pretrain:
                trainer.train_epochs(8, 30)
            for epoch in range(1, 61):
                loss = trainer.run_epoch(16)
                if loss <= threshold:
                    return epoch
            return 61

        # Threshold chosen as what the cold run reaches mid-training.
        cold_model = MGDiffNet(ndim=2, base_filters=8, depth=2, rng=20)
        cold_tr = Trainer(cold_model, problem, dataset,
                          TrainConfig(batch_size=8, lr=3e-3))
        losses = [cold_tr.run_epoch(16) for _ in range(40)]
        threshold = losses[-1]

        warm_epochs = epochs_to(threshold, pretrain=True)
        cold_epochs = epochs_to(threshold, pretrain=False)
        assert warm_epochs < cold_epochs
