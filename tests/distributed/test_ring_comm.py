"""Ring all-reduce and simulated communicator tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.distributed import ring_allreduce, SimulatedCommunicator


class TestRingAllReduce:
    @pytest.mark.parametrize("p,n", [(1, 10), (2, 10), (3, 7), (4, 16),
                                     (5, 101), (8, 64)])
    def test_sum_correct(self, p, n):
        rng = np.random.default_rng(p * 100 + n)
        bufs = [rng.standard_normal(n) for _ in range(p)]
        out, _ = ring_allreduce(bufs)
        ref = np.sum(bufs, axis=0)
        for o in out:
            np.testing.assert_allclose(o, ref, atol=1e-12)

    def test_average(self):
        bufs = [np.full(6, float(i)) for i in range(4)]
        out, _ = ring_allreduce(bufs, average=True)
        np.testing.assert_allclose(out[0], 1.5)

    def test_inputs_not_modified(self):
        bufs = [np.ones(8), np.ones(8) * 2]
        copies = [b.copy() for b in bufs]
        ring_allreduce(bufs)
        for b, c in zip(bufs, copies):
            np.testing.assert_array_equal(b, c)

    def test_steps_count(self):
        bufs = [np.ones(32) for _ in range(4)]
        _, stats = ring_allreduce(bufs)
        assert stats.steps == 2 * (4 - 1)

    def test_bytes_near_theoretical(self):
        p, n = 8, 4096
        bufs = [np.ones(n) for _ in range(p)]
        _, stats = ring_allreduce(bufs)
        # Within the rounding slack of uneven chunking.
        assert stats.bytes_sent_per_rank <= stats.theoretical_bytes_per_rank * 1.05
        assert stats.bytes_sent_per_rank >= stats.theoretical_bytes_per_rank * 0.95

    def test_message_smaller_than_world(self):
        # n < p: some chunks empty; result must still be exact.
        bufs = [np.array([float(i)]) for i in range(5)]
        out, _ = ring_allreduce(bufs)
        np.testing.assert_allclose(out[3], [10.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            ring_allreduce([])
        with pytest.raises(ValueError):
            ring_allreduce([np.ones(3), np.ones(4)])
        with pytest.raises(ValueError):
            ring_allreduce([np.ones((2, 2))])

    @given(p=st.integers(1, 7), n=st.integers(1, 50), seed=st.integers(0, 99))
    @settings(max_examples=40, deadline=None)
    def test_property_equals_numpy_sum(self, p, n, seed):
        rng = np.random.default_rng(seed)
        bufs = [rng.standard_normal(n) for _ in range(p)]
        out, stats = ring_allreduce(bufs)
        ref = np.sum(bufs, axis=0)
        for o in out:
            np.testing.assert_allclose(o, ref, atol=1e-10)
        assert stats.steps == 2 * (p - 1)


class TestCommunicator:
    def test_allreduce_mean(self):
        comm = SimulatedCommunicator(3)
        out = comm.allreduce([np.ones(4) * i for i in range(3)], average=True)
        np.testing.assert_allclose(out[0], 1.0)
        assert comm.log.allreduce_calls == 1
        assert comm.log.allreduce_bytes > 0

    def test_broadcast(self):
        comm = SimulatedCommunicator(4)
        out = comm.broadcast(np.arange(3), root=0)
        assert len(out) == 4
        for o in out:
            np.testing.assert_array_equal(o, [0, 1, 2])
        # Copies, not views.
        out[0][0] = 99
        assert out[1][0] == 0

    def test_broadcast_invalid_root(self):
        with pytest.raises(ValueError):
            SimulatedCommunicator(2).broadcast(np.ones(1), root=5)

    def test_allgather(self):
        comm = SimulatedCommunicator(2)
        out = comm.allgather([np.array([1.0]), np.array([2.0])])
        assert len(out) == 2
        np.testing.assert_array_equal(out[0][1], [2.0])

    def test_barrier_counted(self):
        comm = SimulatedCommunicator(2)
        comm.barrier()
        assert comm.log.barrier_calls == 1

    def test_virtual_clock_charged(self):
        comm = SimulatedCommunicator(
            4, time_model=lambda nbytes, p: nbytes * 1e-9 * p)
        comm.allreduce([np.ones(1000) for _ in range(4)])
        assert comm.log.virtual_comm_seconds > 0

    @pytest.mark.parametrize("collective", ["broadcast", "allgather"])
    def test_every_collective_charges_the_virtual_clock(self, collective):
        comm = SimulatedCommunicator(4, time_model=lambda nbytes, p: 1e-3)
        if collective == "broadcast":
            comm.broadcast(np.ones(8), root=1)
        else:
            comm.allgather([np.ones(8) for _ in range(4)])
        assert comm.log.virtual_comm_seconds == pytest.approx(1e-3)

    def test_wrong_buffer_count(self):
        comm = SimulatedCommunicator(3)
        with pytest.raises(ValueError):
            comm.allreduce([np.ones(2)])

    def test_invalid_world_size(self):
        with pytest.raises(ValueError):
            SimulatedCommunicator(0)
