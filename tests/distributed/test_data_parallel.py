"""Data-parallel trainer: Eq. 15 worker-count independence, replica sync,
gradient flattening."""

import numpy as np
import pytest

from repro import MGDiffNet, PoissonProblem2D, TrainConfig, Trainer
from repro.distributed import (DataParallelTrainer, DPConfig,
                               flatten_gradients, unflatten_to_gradients)
from repro.nn import Parameter


@pytest.fixture(scope="module")
def problem():
    return PoissonProblem2D(resolution=8)


@pytest.fixture(scope="module")
def dataset(problem):
    return problem.make_dataset(8)


def _factory(use_batchnorm=False):
    def make():
        return MGDiffNet(ndim=2, base_filters=4, depth=1,
                         use_batchnorm=use_batchnorm, rng=31)
    return make


class TestFlattening:
    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        params = [Parameter(rng.standard_normal((3, 4)).astype(np.float32)),
                  Parameter(rng.standard_normal(5).astype(np.float32))]
        for p in params:
            p.grad = rng.standard_normal(p.data.shape).astype(np.float32)
        flat = flatten_gradients(params)
        assert flat.shape == (17,)
        grads = [p.grad.copy() for p in params]
        unflatten_to_gradients(flat, params)
        for p, g in zip(params, grads):
            np.testing.assert_allclose(p.grad, g, atol=1e-7)

    def test_missing_grad_is_zero(self):
        p = Parameter(np.ones(3, dtype=np.float32))
        flat = flatten_gradients([p])
        np.testing.assert_array_equal(flat, 0.0)

    def test_size_mismatch_raises(self):
        p = Parameter(np.ones(3, dtype=np.float32))
        with pytest.raises(ValueError):
            unflatten_to_gradients(np.zeros(5), [p])


class TestWorkerInvariance:
    def test_eq15_p1_vs_p4(self, problem, dataset):
        """Training with 4 workers equals training with 1 worker."""
        t1 = DataParallelTrainer(_factory(), problem, dataset,
                                 DPConfig(world_size=1, batch_size=4, lr=1e-3))
        t4 = DataParallelTrainer(_factory(), problem, dataset,
                                 DPConfig(world_size=4, batch_size=4, lr=1e-3))
        r1 = t1.train_epochs(8, 2)
        r4 = t4.train_epochs(8, 2)
        np.testing.assert_allclose(r1.losses, r4.losses, rtol=1e-5)
        s1, s4 = t1.model.state_dict(), t4.model.state_dict()
        for k in s1:
            np.testing.assert_allclose(s1[k], s4[k], atol=1e-5)

    def test_eq15_p2(self, problem, dataset):
        t1 = DataParallelTrainer(_factory(), problem, dataset,
                                 DPConfig(world_size=1, batch_size=4, lr=1e-3))
        t2 = DataParallelTrainer(_factory(), problem, dataset,
                                 DPConfig(world_size=2, batch_size=4, lr=1e-3))
        r1 = t1.train_epochs(8, 1)
        r2 = t2.train_epochs(8, 1)
        np.testing.assert_allclose(r1.losses, r2.losses, rtol=1e-5)

    def test_replicas_stay_synchronized(self, problem, dataset):
        t = DataParallelTrainer(_factory(), problem, dataset,
                                DPConfig(world_size=3, batch_size=6, lr=1e-3,
                                         check_sync=True))
        t.train_epochs(8, 1)  # check_sync raises on divergence

    def test_loss_decreases(self, problem, dataset):
        t = DataParallelTrainer(_factory(), problem, dataset,
                                DPConfig(world_size=2, batch_size=4, lr=3e-3))
        r = t.train_epochs(8, 6)
        assert r.losses[-1] < r.losses[0]


class TestMechanics:
    def test_dataset_padding(self, problem):
        ds = problem.make_dataset(5)  # 5 not divisible by lcm(4, 2)=4
        t = DataParallelTrainer(_factory(), problem, ds,
                                DPConfig(world_size=2, batch_size=4))
        assert len(t.dataset) % 4 == 0

    def test_batch_world_divisibility_enforced(self, problem, dataset):
        with pytest.raises(ValueError):
            DataParallelTrainer(_factory(), problem, dataset,
                                DPConfig(world_size=3, batch_size=4))

    @pytest.mark.parametrize("world", [0, -1])
    def test_world_size_below_one_rejected(self, problem, dataset, world):
        with pytest.raises(ValueError, match="world_size"):
            DataParallelTrainer(_factory(), problem, dataset,
                                DPConfig(world_size=world, batch_size=4))

    def test_virtual_clock_components(self, problem, dataset):
        t = DataParallelTrainer(
            _factory(), problem, dataset,
            DPConfig(world_size=2, batch_size=4),
            comm_time_model=lambda nbytes, p: 1e-3,
            compute_time_per_sample=0.5)
        r = t.train_epochs(8, 1)
        # 8 samples / batch 4 = 2 steps; local bs = 2 -> 1.0 s compute/step.
        assert r.virtual_compute_seconds == pytest.approx(2 * 2 * 0.5)
        assert r.virtual_comm_seconds == pytest.approx(2e-3)
        assert r.steps == 2

    def test_virtual_clock_is_per_call(self, problem, dataset):
        """The communicator's log is a lifetime total; a result reports
        its own call, so repeated calls on one trainer do not drift."""
        t = DataParallelTrainer(
            _factory(), problem, dataset,
            DPConfig(world_size=2, batch_size=4),
            comm_time_model=lambda nbytes, p: 1e-3,
            compute_time_per_sample=0.5)
        results = [t.train_epochs(8, 1) for _ in range(3)]
        for r in results:
            assert r.virtual_comm_seconds == pytest.approx(2e-3)
            assert r.virtual_epoch_seconds == pytest.approx(2.002)
        assert t.comm.log.virtual_comm_seconds == pytest.approx(6e-3)

    def test_weight_decay_is_applied(self, problem, dataset):
        """One optimizer factory: a one-worker run equals the plain
        trainer bitwise, weight decay included."""
        def train(weight_decay):
            t = DataParallelTrainer(
                _factory(), problem, dataset,
                DPConfig(world_size=1, batch_size=4,
                         weight_decay=weight_decay))
            t.train_epochs(8, 2)
            return t.model.state_dict()

        plain = Trainer(_factory()(), problem, dataset,
                        TrainConfig(batch_size=4, weight_decay=0.1))
        plain.train_epochs(8, 2)
        decayed, want = train(0.1), plain.model.state_dict()
        for k in want:
            np.testing.assert_array_equal(decayed[k], want[k])
        undecayed = train(0.0)
        assert any(not np.array_equal(decayed[k], undecayed[k])
                   for k in want)

    def test_bn_stats_synced_across_replicas(self, problem, dataset):
        t = DataParallelTrainer(_factory(use_batchnorm=True), problem, dataset,
                                DPConfig(world_size=2, batch_size=4,
                                         sync_batchnorm_stats=True))
        t.train_epochs(8, 2)
        b0 = dict(t.replicas[0].named_buffers())
        b1 = dict(t.replicas[1].named_buffers())
        for k in b0:
            np.testing.assert_allclose(np.asarray(b0[k]), np.asarray(b1[k]),
                                       rtol=1e-6)

    def test_unknown_optimizer(self, problem, dataset):
        with pytest.raises(ValueError):
            DataParallelTrainer(_factory(), problem, dataset,
                                DPConfig(world_size=1, batch_size=2,
                                         optimizer="lbfgs"))

    def test_warm_epochs_recycle_conv_scratch_through_the_pool(
            self, problem, dataset):
        from repro.backend import get_pool

        t = DataParallelTrainer(_factory(), problem, dataset,
                                DPConfig(world_size=2, batch_size=4))
        t.train_epochs(8, 1)
        before = get_pool().stats.snapshot()
        t.train_epochs(8, 2)
        after = get_pool().stats
        # After the first epoch grew this thread's arena, every conv call
        # of a warm epoch is a hit on it.
        assert after.bytes_recycled > before.bytes_recycled
        assert after.misses == before.misses
