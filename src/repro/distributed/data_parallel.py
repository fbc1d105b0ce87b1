"""Data-parallel distributed training (Sec. 3.2 of the paper).

``DataParallelTrainer`` is a :class:`~repro.core.trainer.Trainer` whose
*step* is distributed: it maintains ``world_size`` genuine model replicas,
splits every global mini-batch into equal local mini-batches (Eq. 15, via
:func:`repro.data.dataloader.shard_batch`), computes local gradients per
rank, averages them with a ring all-reduce, and steps one optimizer per
rank.  The epoch and phase loops are the base trainer's, so a multigrid
cycle runs over it unchanged.  Because replicas stay synchronized, the
trained model equals a single-worker run up to floating-point
reassociation — the property the paper calls 'results independent of the
number of workers'.

Building a trainer pins numpy's bundled OpenBLAS to one thread
(:func:`repro.backend.tuning.pin_blas_threads`), and ranks run in
``min(world_size, default_workers())`` processes (one when the pin could
not be applied).  Each training call forks the extra processes; each
hosts a contiguous group of ranks, the calling process the group holding
rank 0, and runs the same step loop over its own ranks.  Once a step
the processes meet at a barrier over rows of one anonymous shared
mapping — every rank's flattened gradient, loss and compute time — and
every process runs the same ring all-reduce over all rows and keeps its
own, so the parameters are bitwise those of one process running every
rank.  Every process averages the same loss rows, so every process
reaches the same early-stopping decision without exchanging it.  At the end
of the call each forked process hands its ranks' model and optimizer
state back through the mapping and exits, so between calls the calling
process holds every rank's state.

Wall-clock cost of the modelled cluster is tracked on a virtual clock:
per step, compute time is the max over ranks (each charged
``measured_sample_time * local_batch``) plus the modeled ring-allreduce
time for ``Nw`` parameters over the chosen interconnect; a result reports
the clock over its own call.
"""

from __future__ import annotations

import copy
import ctypes
import mmap
import multiprocessing
import os
import pickle
import signal
import threading
import time
import traceback
from dataclasses import dataclass

import numpy as np

from ..backend import get_backend, get_default_dtype, ops as B
from ..backend import reset_after_fork
from ..backend.tuning import blas_threads, default_workers, pin_blas_threads
from ..core.trainer import (TrainConfig, Trainer, TrainResult, backward_pass,
                            make_optimizer)
from ..data.dataloader import shard_batch
from ..utils.seeding import make_rng
from .comm import SimulatedCommunicator
from .ring import _chunk_slices

__all__ = ["DPConfig", "DPResult", "DataParallelTrainer",
           "flatten_gradients", "unflatten_to_gradients"]


def flatten_gradients(params) -> np.ndarray:
    """Concatenate parameter gradients into one flat float64 vector
    (a Horovod-style fusion buffer).  Missing grads contribute zeros."""
    parts = []
    for p in params:
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        parts.append(np.asarray(g, dtype=np.float64).ravel())
    return B.concatenate(parts) if parts else np.zeros(0)


def unflatten_to_gradients(flat: np.ndarray, params) -> None:
    """Scatter a flat vector back into ``p.grad`` slots."""
    pos = 0
    for p in params:
        n = p.data.size
        p.grad = flat[pos:pos + n].reshape(p.data.shape).astype(p.data.dtype)
        pos += n
    if pos != flat.size:
        raise ValueError(f"flat vector size {flat.size} != total params {pos}")


def _segments(arrays) -> list[tuple[str, slice, tuple, np.dtype]]:
    """(name, slice, shape, dtype) of each array laid end to end in one
    float64 row."""
    out, pos = [], 0
    for name, a in arrays:
        a = np.asarray(a)
        out.append((name, slice(pos, pos + a.size), a.shape, a.dtype))
        pos += a.size
    return out


def _as_row(arrays) -> np.ndarray:
    return B.concatenate([np.asarray(a, dtype=np.float64).ravel()
                          for a in arrays])


_ERROR_BYTES = 8192


class _RankGroup:
    """The processes of one training call and the shared rows they meet in.

    ``index`` is this process's place in the group (0: the caller) and
    ``ranks`` the ranks it hosts.  Every slot is a ``(world_size, width)``
    float64 table, held twice: successive exchanges on a slot alternate
    halves.  A process may write its rows for exchange k + 2 only after
    passing exchange k + 1's barrier, which every process reaches after
    reading exchange k's rows, so no row is overwritten while read.
    """

    def __init__(self, world: int, procs: int, widths: dict[str, int],
                 state_bytes: int) -> None:
        self.procs = procs
        self.groups = [range(c.start, c.stop)
                       for c in _chunk_slices(world, procs)]
        self.index, self.ranks = 0, self.groups[0]
        offsets, offset = {}, 0
        for slot, w in widths.items():
            offsets[slot], offset = offset, offset + 2 * world * w * 8
        # Then one mailbox per process: an error text, then a length and
        # its ranks' pickled model and Adam state (the parameters three
        # times over, the buffers once, plus per-entry framing).
        self._mail = offset
        self._box = (_ERROR_BYTES + 8 + 65536
                     + 4 * state_bytes * max(map(len, self.groups)))
        self._mm = mmap.mmap(-1, offset + procs * self._box)
        self._tables = {slot: np.ndarray((2, world, w), np.float64, self._mm,
                                         offsets[slot])
                        for slot, w in widths.items()}
        self._half = dict.fromkeys(widths, 0)
        self.barrier = (multiprocessing.get_context("fork").Barrier(procs)
                        if procs > 1 else None)
        self._pids: list[int] = []
        self._reapers: list[threading.Thread] = []
        self._status: dict[int, int | None] = {}

    def _mailbox(self, index: int) -> int:
        return self._mail + index * self._box

    # -- every process ------------------------------------------------- #
    def table(self, slot: str) -> np.ndarray:
        """The rows of ``slot`` for the next exchange: write this
        process's ranks' rows, :meth:`wait`, then read every row before
        the next exchange."""
        half = self._half[slot]
        self._half[slot] = 1 - half
        return self._tables[slot][half]

    def wait(self) -> None:
        if self.barrier is not None:
            self.barrier.wait()

    # -- the calling process ------------------------------------------- #
    def fork(self) -> None:
        """Start the other processes; returns in each of them with
        ``index`` and ``ranks`` naming the group it hosts."""
        parent = os.getpid()
        for index in range(1, self.procs):
            pid = os.fork()
            if pid == 0:
                self.index, self.ranks = index, self.groups[index]
                self._pids, self._reapers, self._status = [], [], {}
                _die_with(parent)
                return
            self._pids.append(pid)
            reaper = threading.Thread(target=self._reap, args=(index, pid),
                                      daemon=True)
            reaper.start()
            self._reapers.append(reaper)

    def _reap(self, index: int, pid: int) -> None:
        try:
            status = os.waitpid(pid, 0)[1]
        except ChildProcessError:        # reaped elsewhere
            status = None
        self._status[index] = status
        # Wake everyone still waiting.  A broken barrier has no waiters,
        # and its lock may have died with a process ``abort`` killed:
        # aborting it again would block this thread, and ``abort``, for good.
        if status != 0 and not self.barrier.broken:
            self.barrier.abort()

    def join(self) -> dict[int, tuple]:
        """Wait for the forked processes; returns the rank states they
        handed back, or raises when one did not."""
        if self.barrier is None:
            return {}
        for reaper in self._reapers:
            while reaper.is_alive():
                reaper.join(0.01)
                # The caller has passed its last barrier: a process
                # waiting at one now has left lockstep; free it.
                if self.barrier.n_waiting:
                    self.barrier.abort()
        states: dict[int, tuple] = {}
        for index in range(1, self.procs):
            at = self._mailbox(index) + _ERROR_BYTES
            size = int.from_bytes(self._mm[at:at + 8], "little")
            if not size:
                raise self.failure()
            states.update(pickle.loads(self._mm[at + 8:at + 8 + size]))
        return states

    def abort(self) -> None:
        """Break the barrier, then kill and reap every forked process."""
        if self.barrier is None:
            return
        self.barrier.abort()
        died = dict(self._status)
        for index, pid in enumerate(self._pids, start=1):
            if index not in died:       # a reaped pid may be reused
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        for reaper in self._reapers:
            reaper.join()
        self._status = died

    def failure(self) -> RuntimeError:
        """What went wrong in the forked processes, as one error."""
        lines = []
        for index in range(1, self.procs):
            ranks = self.groups[index]
            where = f"rank process {index} (ranks {ranks[0]}-{ranks[-1]})"
            at = self._mailbox(index)
            text = bytes(self._mm[at:at + _ERROR_BYTES]).rstrip(b"\0")
            status = self._status.get(index)
            if text:
                lines.append(f"{where} raised:\n{text.decode(errors='replace')}")
            elif status:
                code = os.waitstatus_to_exitcode(status)
                lines.append(f"{where} was killed by signal {-code}" if code < 0
                             else f"{where} exited with code {code}")
        return RuntimeError("\n".join(lines) or "a rank process failed")

    # -- a forked process ---------------------------------------------- #
    def hand_back(self, states: dict[int, tuple]) -> None:
        """Write this process's rank states for the caller and exit."""
        payload = pickle.dumps(states, protocol=pickle.HIGHEST_PROTOCOL)
        room = self._box - _ERROR_BYTES - 8
        if len(payload) > room:
            raise RuntimeError(f"rank state of {len(payload)} bytes exceeds "
                               f"its {room}-byte mailbox")
        at = self._mailbox(self.index) + _ERROR_BYTES
        self._mm[at + 8:at + 8 + len(payload)] = payload
        self._mm[at:at + 8] = len(payload).to_bytes(8, "little")
        os._exit(0)

    def fail(self) -> None:
        """Record the exception being handled, break the barrier, exit."""
        try:
            text = traceback.format_exc().encode()[-_ERROR_BYTES:]
            at = self._mailbox(self.index)
            self._mm[at:at + len(text)] = text
            self.barrier.abort()
        finally:
            os._exit(1)


def _die_with(parent: int) -> None:
    """Have the kernel kill this forked process when its parent dies."""
    try:
        prctl = ctypes.CDLL(None).prctl
    except (AttributeError, OSError):                 # pragma: no cover
        return
    prctl.argtypes, prctl.restype = [ctypes.c_int, ctypes.c_ulong], ctypes.c_int
    prctl(1, signal.SIGKILL)                          # PR_SET_PDEATHSIG
    if os.getppid() != parent:
        os._exit(1)


@dataclass
class DPConfig(TrainConfig):
    """Distributed training: ``batch_size`` is global (paper: 64)."""

    world_size: int = 4
    check_sync: bool = False     # assert replica synchronization each step
    sync_batchnorm_stats: bool = True


@dataclass
class DPResult(TrainResult):
    """Outcome of one distributed training call."""

    world_size: int = 1
    virtual_compute_seconds: float = 0.0
    virtual_comm_seconds: float = 0.0
    steps: int = 0

    @property
    def measured_wall(self) -> float:
        return self.wall_time

    @property
    def virtual_epoch_seconds(self) -> float:
        n_epochs = max(len(self.losses), 1)
        return (self.virtual_compute_seconds + self.virtual_comm_seconds) / n_epochs


class DataParallelTrainer(Trainer):
    """Data-parallel trainer over ``world_size`` ranks.

    Parameters
    ----------
    model_factory:
        Zero-arg callable constructing one replica.  All replicas are
        synchronized to replica 0's initial weights via a broadcast;
        ``model`` is replica 0, the canonical trained model.
    problem, dataset:
        As for :class:`repro.core.trainer.Trainer`.  The dataset is
        augmented so its length is divisible by the global batch size and
        the global batch by the world size (paper's augmentation step).
    comm_time_model:
        Optional (message_bytes, p) -> seconds for the virtual clock.
    compute_time_per_sample:
        Optional seconds/sample for the virtual clock; when None the
        measured host time of each rank's work is used instead.
    """

    def __init__(self, model_factory, problem, dataset, config: DPConfig,
                 comm_time_model=None,
                 compute_time_per_sample: float | None = None) -> None:
        batch, world = config.batch_size, config.world_size
        if world < 1:
            raise ValueError(f"world_size must be >= 1, got {world}")
        if batch % world:
            raise ValueError("global batch size must divide by world size")
        # Rank processes must not oversubscribe cores; the phase loop's
        # pin comes after ``_train`` has counted processes and forked.
        pin_blas_threads()
        # Build replicas and broadcast rank-0 weights.
        self.replicas = [model_factory() for _ in range(world)]
        state = self.replicas[0].state_dict()
        for rep in self.replicas[1:]:
            rep.load_state_dict(state)
        super().__init__(self.replicas[0], problem, dataset.padded_to_multiple(
            np.lcm(batch, world)), config)
        self.optimizers = [self.optimizer] + [
            make_optimizer(config, rep.parameters())
            for rep in self.replicas[1:]]
        self.comm = SimulatedCommunicator(world, time_model=comm_time_model)
        self.compute_time_per_sample = compute_time_per_sample
        self._group: _RankGroup | None = None

    def adapt(self, rng: np.random.Generator | int | None = None) -> None:
        """Adapt every replica from one seed drawn from ``rng``, so the
        fresh layers start identical on all ranks."""
        seed = int(make_rng(rng).integers(2 ** 63))
        for rep, opt in zip(self.replicas, self.optimizers):
            rep.adapt(seed)
            opt.sync_params(rep)

    def _new_result(self, resolution: int) -> DPResult:
        return DPResult(resolution, world_size=self.config.world_size)

    # ------------------------------------------------------------------ #
    def _new_group(self, procs: int) -> _RankGroup:
        """A group over ``procs`` processes, its rows laid out for the
        replicas as they are now."""
        ref = self.replicas[0]
        state = ref.state_dict()
        self._buffers = _segments(ref.named_buffers())
        self._state = _segments(state.items()) if self.config.check_sync else []
        widths = {"step": ref.num_parameters() + 2,
                  "bn": sum(s.stop - s.start for _, s, _, _ in self._buffers),
                  "sync": sum(s.stop - s.start for _, s, _, _ in self._state)}
        return _RankGroup(self.config.world_size, procs, widths,
                          sum(v.nbytes for v in state.values()))

    def _train(self, resolution: int, max_epochs: int, stopper) -> DPResult:
        """The base phase loop, its ranks spread over processes."""
        procs = min(self.config.world_size, default_workers())
        if blas_threads() != 1:     # threaded BLAS per process oversubscribes
            procs = 1
        self._level(resolution)     # forked ranks inherit the dataset caches
        group = self._group = self._new_group(procs)
        try:
            group.fork()
            if group.index:
                reset_after_fork(get_backend().name,
                                 np.dtype(get_default_dtype()).name)
            result = super()._train(resolution, max_epochs, stopper)
            if group.index:
                group.hand_back({r: self._rank_state(r) for r in group.ranks})
            for r, state in group.join().items():
                self._set_rank_state(r, state)
            return result
        except BaseException as exc:
            if group.index:
                group.fail()
            group.abort()
            if procs > 1:
                self._broadcast_rank0()
            if isinstance(exc, threading.BrokenBarrierError):
                raise group.failure() from exc
            raise
        finally:
            self._group = None

    def _rank_state(self, r: int) -> tuple:
        """Rank ``r``'s model state, optimizer state and step count."""
        opt = self.optimizers[r]
        return self.replicas[r].state_dict(), opt.state, opt._step_count

    def _set_rank_state(self, r: int, state: tuple) -> None:
        model, self.optimizers[r].state, self.optimizers[r]._step_count = state
        self.replicas[r].load_state_dict(model)

    def _broadcast_rank0(self) -> None:
        """Every rank takes rank 0's model and optimizer state, so a
        failed call leaves the replicas synchronized."""
        for r in range(1, self.config.world_size):
            self._set_rank_state(r, copy.deepcopy(self._rank_state(0)))

    def run_epoch(self, resolution: int,
                  result: DPResult | None = None) -> float:
        """The base epoch, then this epoch's virtual-comm accounting and
        the batch-norm averaging."""
        if self._group is None:     # an epoch outside ``_train``
            self._group = self._new_group(1)
            try:
                return self.run_epoch(resolution, result)
            finally:
                self._group = None
        result = result or self._new_result(resolution)
        log = self.comm.log
        comm_before = log.virtual_comm_seconds
        loss = super().run_epoch(resolution, result)
        result.virtual_comm_seconds += log.virtual_comm_seconds - comm_before
        if self.config.sync_batchnorm_stats:
            self._sync_bn_stats()
        return loss

    def _step(self, global_idx: np.ndarray, inputs, nus, masks, energy,
              result: DPResult) -> float:
        cfg, per_sample, group = (self.config, self.compute_time_per_sample,
                                  self._group)
        shards = shard_batch(global_idx, cfg.world_size)
        rows = group.table("step")      # gradient, loss, compute seconds
        n = rows.shape[1] - 2
        for r in group.ranks:
            rep, opt, shard = self.replicas[r], self.optimizers[r], shards[r]
            t0 = time.perf_counter()
            opt.zero_grad()
            loss = backward_pass(rep, inputs[shard], nus[shard], masks, energy)
            rows[r, n:] = loss, (time.perf_counter() - t0 if per_sample is None
                                 else per_sample * len(shard))
            rows[r, :n] = flatten_gradients(rep.parameters())
        group.wait()

        reduced = self.comm.allreduce(list(rows[:, :n]), average=True)
        for r in group.ranks:
            unflatten_to_gradients(reduced[r], self.replicas[r].parameters())
            self.optimizers[r].step()

        # Virtual clock: lockstep workers wait for the slowest.
        result.virtual_compute_seconds += max(rows[:, n + 1].tolist())
        result.steps += 1
        # Global loss = mean of equally-sized local losses.
        loss = float(B.mean(rows[:, n].tolist()))
        if cfg.check_sync:
            self._assert_synced()
        return loss

    # ------------------------------------------------------------------ #
    def _sync_bn_stats(self) -> None:
        """Average batch-norm running statistics across replicas.

        Local batches see different samples, so running stats drift apart;
        averaging them keeps eval-mode behaviour rank-independent.
        """
        group, world = self._group, self.config.world_size
        if not self._buffers:
            return
        rows = group.table("bn")
        for r in group.ranks:
            rows[r] = _as_row(b for _, b in self.replicas[r].named_buffers())
        group.wait()
        state = {f"buffer:{name}": B.mean(
            [rows[r, at].reshape(shape) for r in range(world)],
            axis=0).astype(dtype)
            for name, at, shape, dtype in self._buffers}
        for r in group.ranks:
            self.replicas[r].load_state_dict(state, strict=False)

    def _assert_synced(self) -> None:
        """Every replica's state equals rank 0's.

        Every process publishes its ranks' rows; only the caller's
        compares them.  A forked process that raised here would break
        the barrier, and a caller released by that barrier but not yet
        past it would see the break, not the divergence.  So the forked
        processes carry on, and the caller's ``AssertionError`` ends
        them through ``abort``.
        """
        group = self._group
        rows = group.table("sync")
        for r in group.ranks:
            rows[r] = _as_row(self.replicas[r].state_dict().values())
        group.wait()
        if group.index:
            return
        for i in range(1, self.config.world_size):
            for name, at, _, _ in self._state:
                if not B.allclose(rows[i, at], rows[0, at], atol=0, rtol=0):
                    raise AssertionError(
                        f"replica {i} desynchronized at {name!r}")
