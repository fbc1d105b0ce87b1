"""Trainer and MultigridTrainer behaviour."""

from dataclasses import asdict

import numpy as np
import pytest

from repro import (MGDiffNet, PoissonProblem2D, Trainer, TrainConfig,
                   MultigridTrainer, MGTrainConfig)
from repro.distributed import DataParallelTrainer, DPConfig, DPResult


@pytest.fixture(scope="module")
def problem():
    return PoissonProblem2D(16)


@pytest.fixture(scope="module")
def dataset(problem):
    return problem.make_dataset(8)


def _model(use_batchnorm=True):
    return MGDiffNet(ndim=2, base_filters=4, depth=2,
                     use_batchnorm=use_batchnorm, rng=13)


class TestTrainer:
    """The contract of every trainer.  ``make_trainer(**config)`` builds
    the plain one here; the subclasses below override the fixture, so the
    same bodies run over the data-parallel trainer (the test ids of this
    class stay what they always were)."""

    @pytest.fixture
    def make_trainer(self, problem, dataset):
        return lambda **config: Trainer(_model(), problem, dataset,
                                        TrainConfig(**config))

    def test_loss_decreases(self, make_trainer):
        t = make_trainer(batch_size=4, lr=3e-3)
        r = t.train_epochs(16, 8)
        assert r.losses[-1] < r.losses[0]
        assert r.epochs_run == 8
        assert len(r.epoch_times) == 8
        assert r.wall_time > 0

    def test_early_stopping_triggers(self, make_trainer):
        # lr=tiny so loss plateaus immediately.
        t = make_trainer(batch_size=4, lr=1e-12, patience=2,
                         min_delta=1e-3, min_epochs=0)
        r = t.train_until_converged(16, max_epochs=50)
        assert r.stopped_early
        assert r.epochs_run <= 10

    def test_max_time_budget(self, make_trainer):
        t = make_trainer(batch_size=4, max_time=0.0)
        r = t.train_epochs(16, 100)
        assert r.epochs_run == 1  # stops after the first epoch check

    def test_deterministic_given_seed(self, make_trainer):
        r1 = make_trainer(batch_size=4, seed=5).train_epochs(16, 2)
        r2 = make_trainer(batch_size=4, seed=5).train_epochs(16, 2)
        np.testing.assert_allclose(r1.losses, r2.losses, rtol=1e-6)

    def test_evaluate_loss_no_update(self, make_trainer):
        t = make_trainer(batch_size=4)
        before = t.model.state_dict()
        val = t.evaluate_loss(16)
        after = t.model.state_dict()
        assert np.isfinite(val)
        for k in before:
            np.testing.assert_array_equal(before[k], after[k])

    @pytest.mark.parametrize("was_training", [True, False])
    def test_evaluate_loss_preserves_mode(self, make_trainer, was_training):
        t = make_trainer(batch_size=4)
        t.model.train(was_training)
        t.evaluate_loss(16)
        assert t.model.training is was_training

    def test_evaluate_loss_restores_mode_when_forward_raises(
            self, make_trainer, monkeypatch):
        t = make_trainer(batch_size=4)

        def broken(*args):
            raise RuntimeError("forward failed")

        monkeypatch.setattr(t.model, "forward", broken)
        with pytest.raises(RuntimeError, match="forward failed"):
            t.evaluate_loss(16)
        assert t.model.training

    def test_trains_at_multiple_resolutions(self, make_trainer):
        t = make_trainer(batch_size=4)
        r8 = t.train_epochs(8, 1)
        r16 = t.train_epochs(16, 1)
        assert r8.resolution == 8 and r16.resolution == 16

    def test_unknown_optimizer_raises(self, make_trainer):
        with pytest.raises(ValueError):
            make_trainer(optimizer="newton")


class TestDataParallelTrainerOneWorker(TestTrainer):
    world_size = 1

    @pytest.fixture
    def make_trainer(self, problem, dataset):
        return lambda **config: DataParallelTrainer(
            _model, problem, dataset,
            DPConfig(world_size=self.world_size, **config))


class TestDataParallelTrainerTwoWorkers(TestDataParallelTrainerOneWorker):
    world_size = 2


class TestMultigridTrainer:
    def _cfg(self):
        return MGTrainConfig(batch_size=4, lr=3e-3, restriction_epochs=2,
                             max_epochs_per_level=4, patience=2)

    @pytest.mark.parametrize("strategy", ["v", "w", "f", "half_v"])
    def test_schedule_executed(self, problem, dataset, strategy):
        tr = MultigridTrainer(_model(), problem, dataset, strategy=strategy,
                              levels=2, config=self._cfg())
        res = tr.train()
        assert [r.level for r in res.records] == [
            s.level for s in tr.schedule]
        assert res.total_time > 0
        assert np.isfinite(res.final_loss)

    def test_resolutions_match_levels(self, problem, dataset):
        tr = MultigridTrainer(_model(), problem, dataset, strategy="half_v",
                              levels=2, config=self._cfg())
        res = tr.train()
        assert [(r.level, r.resolution) for r in res.records] == [
            (2, 8), (1, 16)]

    def test_time_accounting(self, problem, dataset):
        tr = MultigridTrainer(_model(), problem, dataset, strategy="v",
                              levels=2, config=self._cfg())
        res = tr.train()
        per = res.time_per_level()
        assert set(per) == {1, 2}
        frac = res.time_fraction_per_level()
        assert sum(frac.values()) == pytest.approx(1.0)

    def test_loss_history_monotone_time(self, problem, dataset):
        tr = MultigridTrainer(_model(), problem, dataset, strategy="half_v",
                              levels=2, config=self._cfg())
        res = tr.train()
        hist = res.loss_history()
        times = [t for _, t, _ in hist]
        assert all(a < b for a, b in zip(times, times[1:]))

    def test_adaptation_on_refinement(self, problem, dataset):
        model = _model()
        n0 = model.num_weights
        tr = MultigridTrainer(model, problem, dataset, strategy="half_v",
                              levels=2, config=self._cfg(), adapt=True,
                              adapt_rng=1)
        res = tr.train()
        assert model.num_weights > n0
        assert any(r.adapted for r in res.records)
        # Adaptation fires exactly when moving 2 -> 1.
        assert res.records[1].adapted and not res.records[0].adapted

    def test_baseline_training(self, problem, dataset):
        tr = MultigridTrainer(_model(), problem, dataset, strategy="half_v",
                              levels=2, config=self._cfg())
        base = tr.train_baseline()
        assert base.resolution == 16

    def test_hierarchy_respects_model_min_resolution(self, problem, dataset):
        model = MGDiffNet(ndim=2, base_filters=4, depth=3, rng=0)  # min res 8
        with pytest.raises(ValueError):
            MultigridTrainer(model, problem, dataset, levels=3,
                             config=self._cfg())

    # -- the same cycle over a data-parallel trainer (Sec. 3.2 x 3.1.2) -- #
    def _cycles(self, problem, dataset, world_sizes, use_batchnorm, **kw):
        """A V-cycle over the plain trainer, and over a data-parallel
        trainer per world size, all from the same start."""
        plain = MultigridTrainer(_model(use_batchnorm), problem, dataset,
                                 strategy="v", levels=2, config=self._cfg(),
                                 **kw)
        over = [MultigridTrainer(
            strategy="v", levels=2, trainer=DataParallelTrainer(
                lambda: _model(use_batchnorm), problem, dataset,
                DPConfig(world_size=w, check_sync=True,
                         **asdict(self._cfg()))), **kw)
            for w in world_sizes]
        return [(mg, mg.train()) for mg in [plain] + over]

    def test_cycle_over_one_worker_equals_the_plain_cycle_bitwise(
            self, problem, dataset):
        (plain, ref), (dp, res) = self._cycles(problem, dataset, [1], True)
        assert ([r.result.losses for r in res.records]
                == [r.result.losses for r in ref.records])
        got, want = dp.trainer.model.state_dict(), plain.trainer.model.state_dict()
        assert got.keys() == want.keys()
        for k in want:
            np.testing.assert_array_equal(got[k], want[k])

    def test_cycle_is_independent_of_worker_count(self, problem, dataset):
        """Eq. 15 over a whole cycle (batch-norm's local-batch statistics
        are the stated exception, hence ``use_batchnorm=False``)."""
        (plain, ref), *others = self._cycles(problem, dataset, [2, 4], False)
        want = plain.trainer.model.state_dict()
        for dp, res in others:
            assert len(res.records) == len(ref.records)
            for rec, ref_rec in zip(res.records, ref.records):
                np.testing.assert_allclose(rec.result.losses,
                                           ref_rec.result.losses, rtol=1e-5)
            got = dp.trainer.model.state_dict()
            for k in want:
                np.testing.assert_allclose(got[k], want[k], atol=1e-4)

    def test_adaptation_keeps_replicas_synchronized(self, problem, dataset):
        # check_sync=True compares every replica with replica 0 after each
        # step; batch-norm buffers only meet at epoch ends, so none here.
        _, (dp, res) = self._cycles(problem, dataset, [2], False,
                                    adapt=True, adapt_rng=1)
        assert [r.adapted for r in res.records] == [False, False, True]
        assert all(isinstance(r.result, DPResult) for r in res.records)
        sizes = {rep.num_weights for rep in dp.trainer.replicas}
        assert len(sizes) == 1 and sizes.pop() > _model(False).num_weights
