"""Data-parallel ranks in forked processes.

``DataParallelTrainer`` spreads its ranks over ``min(world_size,
default_workers())`` processes.  Patching ``default_workers`` to 1 gives
the one-process run, the oracle: every rank's parameters, buffers and
optimizer state, and every loss, must come out bitwise the same from any
process count.  A rank that raises or a rank process that dies must end
the call with an error in bounded time, leave no process behind and
leave the trainer usable.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from repro import MGDiffNet, MGTrainConfig, MultigridTrainer, PoissonProblem2D
from repro.backend.tuning import blas_threads
from repro.distributed import DataParallelTrainer, DPConfig
from repro.distributed import data_parallel as dp

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork") or blas_threads() is None
    or not Path("/proc/self/stat").exists(),
    reason="rank processes need fork, numpy's OpenBLAS and /proc")

RES = 8


@pytest.fixture(scope="module")
def problem():
    return PoissonProblem2D(RES)


@pytest.fixture(scope="module")
def dataset(problem):
    return problem.make_dataset(12)


def _factory(use_batchnorm=False):
    return lambda: MGDiffNet(ndim=2, base_filters=4, depth=1,
                             use_batchnorm=use_batchnorm, rng=31)


def _workers(monkeypatch, n: int) -> None:
    monkeypatch.setattr(dp, "default_workers", lambda: n)


def _children() -> set[int]:
    """Live and unreaped child processes of this process."""
    me, kids = str(os.getpid()), set()
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[1] == me:
            kids.add(int(stat.parent.name))
    return kids


@contextmanager
def _deadline(seconds: int):
    """Turn a hang into a ``TimeoutError`` after ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _snapshot(trainer) -> list:
    """Every rank's model state, optimizer state and step count."""
    out = []
    for rep, opt in zip(trainer.replicas, trainer.optimizers):
        moments = {(i, k): v for i, st in opt.state.items()
                   for k, v in st.items()}
        out.append((rep.state_dict(), moments, opt._step_count))
    return out


def _assert_same(got, want) -> None:
    assert len(got) == len(want)
    for (state, moments, steps), (state0, moments0, steps0) in zip(got, want):
        assert steps == steps0
        assert state.keys() == state0.keys() and moments.keys() == moments0.keys()
        for k in state0:
            np.testing.assert_array_equal(state[k], state0[k], err_msg=k)
        for k in moments0:
            np.testing.assert_array_equal(moments[k], moments0[k], err_msg=k)


def _run(monkeypatch, workers, problem, dataset, drive, use_batchnorm=False,
         **config):
    """``drive(trainer)`` over ``workers`` processes; (losses, snapshot)."""
    _workers(monkeypatch, workers)
    trainer = DataParallelTrainer(_factory(use_batchnorm), problem, dataset,
                                  DPConfig(**config))
    losses = drive(trainer)
    return losses, _snapshot(trainer)


def _epochs(n):
    return lambda t: [loss for _ in range(n)
                      for loss in t.train_epochs(RES, 1).losses]


class TestParity:
    @pytest.mark.parametrize("world, workers", [
        (2, 2), (3, 2), (3, 3), (4, 2), (4, 4)])
    def test_equal_to_one_process(self, monkeypatch, problem, dataset,
                                  world, workers):
        cfg = dict(world_size=world, batch_size=2 * world, lr=3e-3)
        want = _run(monkeypatch, 1, problem, dataset, _epochs(3), **cfg)
        got = _run(monkeypatch, workers, problem, dataset, _epochs(3), **cfg)
        assert got[0] == want[0]
        _assert_same(got[1], want[1])

    @pytest.mark.parametrize("world", [2, 4])
    def test_batchnorm(self, monkeypatch, problem, dataset, world):
        cfg = dict(world_size=world, batch_size=4, sync_batchnorm_stats=True)
        want = _run(monkeypatch, 1, problem, dataset, _epochs(2), True, **cfg)
        got = _run(monkeypatch, 2, problem, dataset, _epochs(2), True, **cfg)
        assert got[0] == want[0]
        _assert_same(got[1], want[1])
        # BN buffers meet at the epoch end: every replica equal.
        for state, _, _ in got[1][1:]:
            for k, v in got[1][0][0].items():
                np.testing.assert_array_equal(state[k], v)

    def test_multigrid_cycle_with_adaptation(self, monkeypatch):
        problem = PoissonProblem2D(16)
        data = problem.make_dataset(8)
        cfg = MGTrainConfig(batch_size=4, lr=3e-3, restriction_epochs=2,
                            max_epochs_per_level=3, patience=2)

        def cycle(workers):
            _workers(monkeypatch, workers)
            mg = MultigridTrainer(
                strategy="v", levels=2, adapt=True, adapt_rng=1,
                trainer=DataParallelTrainer(
                    lambda: MGDiffNet(ndim=2, base_filters=4, depth=2,
                                      rng=13),
                    problem, data, DPConfig(world_size=2, **asdict(cfg))))
            res = mg.train()
            return ([r.result.losses for r in res.records],
                    [r.adapted for r in res.records], _snapshot(mg.trainer))

        want, got = cycle(1), cycle(2)
        assert got[1] == want[1] == [False, False, True]
        assert got[0] == want[0]
        _assert_same(got[2], want[2])

    def test_train_until_converged(self, monkeypatch, problem, dataset):
        cfg = dict(world_size=2, batch_size=4, patience=1, min_epochs=1,
                   min_delta=0.5)

        def drive(t):
            r = t.train_until_converged(RES, max_epochs=20)
            assert r.stopped_early
            return r.losses

        want = _run(monkeypatch, 1, problem, dataset, drive, **cfg)
        got = _run(monkeypatch, 2, problem, dataset, drive, **cfg)
        assert got[0] == want[0] and len(got[0]) < 20
        _assert_same(got[1], want[1])

    def test_max_time_is_rank0s(self, monkeypatch, problem, dataset):
        """Rank 0's clock ends the call, and every rank stops with it:
        here the caller's clock jumps an hour per reading, while a
        forked rank's own clock would let it train on."""
        from repro.core import trainer as core_trainer

        caller, real, jumps = os.getpid(), time.perf_counter, []

        def perf_counter():
            if os.getpid() == caller:
                jumps.append(1)
            return real() + 3600.0 * len(jumps)

        monkeypatch.setattr(core_trainer, "time",
                            type("Clock", (), {"perf_counter": perf_counter}))
        cfg = dict(world_size=4, batch_size=4, max_time=60.0)

        def drive(t):
            r = t.train_epochs(RES, 5)
            assert r.epochs_run == 1 and not r.stopped_early
            return r.losses

        want = _run(monkeypatch, 1, problem, dataset, drive, **cfg)
        got = _run(monkeypatch, 2, problem, dataset, drive, **cfg)
        assert got[0] == want[0]
        _assert_same(got[1], want[1])

    def test_ranks_run_in_forked_processes(self, monkeypatch, problem,
                                           dataset):
        forks, real_fork = [], os.fork

        def fork():
            pid = real_fork()
            if pid:
                forks.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", fork)
        before = _children()
        _run(monkeypatch, 3, problem, dataset, _epochs(2), world_size=4,
             batch_size=4)
        assert len(forks) == 4          # two per call, one call per epoch
        assert _children() == before

    def test_comm_log_counts_one_allreduce_per_step(self, monkeypatch,
                                                    problem, dataset):
        logs = []
        for workers in (1, 2):
            _workers(monkeypatch, workers)
            t = DataParallelTrainer(
                _factory(), problem, dataset,
                DPConfig(world_size=4, batch_size=4),
                comm_time_model=lambda nbytes, p: 1e-3,
                compute_time_per_sample=0.5)
            r = t.train_epochs(RES, 2)
            logs.append((t.comm.log.allreduce_calls,
                         t.comm.log.allreduce_bytes, r.steps,
                         r.virtual_compute_seconds, r.virtual_comm_seconds))
        assert logs[0] == logs[1]
        assert logs[0][0] == logs[0][2] == 6

    def test_check_sync_raises_on_planted_divergence(self, monkeypatch,
                                                     problem, dataset):
        """The caller raises the divergence even when, released by the
        sync barrier, it lags before leaving it: a forked process that
        compared too would break the barrier in that window."""
        caller, real_wait = os.getpid(), dp._RankGroup.wait

        def wait(group):
            real_wait(group)
            if os.getpid() == caller and group.barrier is not None:
                time.sleep(0.2)     # a released waiter's re-check window
                if group.barrier.broken:
                    raise threading.BrokenBarrierError

        monkeypatch.setattr(dp._RankGroup, "wait", wait)
        _workers(monkeypatch, 2)
        t = DataParallelTrainer(_factory(), problem, dataset,
                                DPConfig(world_size=2, batch_size=4,
                                         check_sync=True))
        p = t.replicas[1].parameters()[0]
        p.data = p.data + 1e-3
        before = _children()
        with _deadline(60), pytest.raises(AssertionError,
                                          match="replica 1 desynchronized"):
            t.train_epochs(RES, 1)
        assert _children() == before


class TestFailure:
    """A failing rank ends the call; the trainer keeps working."""

    def _trainer(self, monkeypatch, problem, dataset):
        _workers(monkeypatch, 2)
        return DataParallelTrainer(_factory(), problem, dataset,
                                   DPConfig(world_size=4, batch_size=4,
                                            check_sync=True))

    def _plant(self, monkeypatch, trainer, rank, step, action):
        """Run ``action`` in ``rank``'s process at its ``step``-th step."""
        real, seen = dp.backward_pass, []

        def backward_pass(model, *args):
            if model is trainer.replicas[rank]:
                seen.append(1)
                if len(seen) == step:
                    action()
            return real(model, *args)

        monkeypatch.setattr(dp, "backward_pass", backward_pass)
        return real

    def _fails(self, monkeypatch, trainer, real, error, match):
        before = _children()
        with _deadline(60), pytest.raises(error, match=match):
            trainer.train_epochs(RES, 2)
        assert _children() == before
        # Usable: the replicas were re-synchronized to rank 0, and the
        # next call trains every rank in step (check_sync is on).
        monkeypatch.setattr(dp, "backward_pass", real)
        ref = trainer.replicas[0].state_dict()
        for rep in trainer.replicas[1:]:
            for k, v in rep.state_dict().items():
                np.testing.assert_array_equal(v, ref[k])
        r = trainer.train_epochs(RES, 1)
        assert np.isfinite(r.losses).all() and r.steps == 3
        assert _children() == before

    def _raise(self):
        raise ValueError("planted failure")

    def test_forked_rank_raises(self, monkeypatch, problem, dataset):
        t = self._trainer(monkeypatch, problem, dataset)
        real = self._plant(monkeypatch, t, 3, 4, self._raise)
        self._fails(monkeypatch, t, real, RuntimeError,
                    r"(?s)rank process 1 \(ranks 2-3\) raised.*planted failure")

    def test_rank0_raises(self, monkeypatch, problem, dataset):
        t = self._trainer(monkeypatch, problem, dataset)
        real = self._plant(monkeypatch, t, 0, 2, self._raise)
        self._fails(monkeypatch, t, real, ValueError, "planted failure")

    def test_abort_reaps_a_process_killed_holding_the_barrier_lock(
            self, monkeypatch):
        """``abort`` breaks the barrier, then kills.  A process woken by the
        break may die holding the barrier's lock; reaping it must not
        block on that lock."""
        group = dp._RankGroup(2, 2, {"held": 1}, 8)
        held = group.table("held")
        before = _children()
        group.fork()
        if group.index:
            try:
                while not group.barrier.broken:
                    time.sleep(0.001)
                group.barrier._cond.acquire()
                held[1, 0] = 1
                time.sleep(60)
            finally:
                os._exit(0)
        kill = os.kill

        def kill_once_held(pid, sig):
            while not held[1, 0]:
                time.sleep(0.001)
            kill(pid, sig)

        monkeypatch.setattr(os, "kill", kill_once_held)
        with _deadline(30):
            group.abort()
        assert _children() == before

    def test_rank_process_killed(self, monkeypatch, problem, dataset):
        t = self._trainer(monkeypatch, problem, dataset)
        real = self._plant(monkeypatch, t, 2, 5,
                           lambda: os.kill(os.getpid(), signal.SIGKILL))
        self._fails(monkeypatch, t, real, RuntimeError,
                    r"rank process 1 \(ranks 2-3\) was killed by signal 9")
