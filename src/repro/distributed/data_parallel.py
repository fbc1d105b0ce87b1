"""Data-parallel distributed training (Sec. 3.2 of the paper).

``DataParallelTrainer`` is a :class:`~repro.core.trainer.Trainer` whose
*step* is distributed: it maintains ``world_size`` genuine model replicas,
splits every global mini-batch into equal local mini-batches (Eq. 15, via
:func:`repro.data.dataloader.shard_batch`), computes local gradients per
rank, averages them with a real ring all-reduce, and steps one optimizer
per rank.  The epoch and phase loops are the base trainer's, so a multigrid
cycle runs over it unchanged.  Because replicas stay synchronized, the
trained model equals a single-worker run up to floating-point
reassociation — the property the paper calls 'results independent of the
number of workers'.

Wall-clock cost of the *simulated* cluster is tracked on a virtual clock:
per step, compute time is the max over ranks (each charged
``measured_sample_time * local_batch``) plus the modeled ring-allreduce
time for ``Nw`` parameters over the chosen interconnect; a result reports
the clock over its own call.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..backend import get_pool, ops as B
from ..core.trainer import (TrainConfig, Trainer, TrainResult, backward_pass,
                            make_optimizer)
from ..data.dataloader import shard_batch
from ..utils.seeding import make_rng
from .comm import SimulatedCommunicator

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
    # Buffer-pool accounting (allocation traffic the pool absorbed):
    # per-epoch recycled bytes, and the pool's high-water mark after the
    # run — the number to size BufferPool.max_bytes from.
    pool_bytes_recycled: list[int] = field(default_factory=list)
    pool_high_water_bytes: int = 0

    @property
    def measured_wall(self) -> float:
        return self.wall_time

    @property
    def virtual_epoch_seconds(self) -> float:
        n_epochs = max(len(self.losses), 1)
        return (self.virtual_compute_seconds + self.virtual_comm_seconds) / n_epochs


class DataParallelTrainer(Trainer):
    """Simulated-cluster data-parallel trainer.

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
        if batch % world:
            raise ValueError("global batch size must divide by world size")
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
    def run_epoch(self, resolution: int,
                  result: DPResult | None = None) -> float:
        """The base epoch, then this epoch's pool and virtual-comm
        accounting and the batch-norm averaging."""
        result = result or self._new_result(resolution)
        pool, log = get_pool(), self.comm.log
        recycled_before = pool.stats.bytes_recycled
        comm_before = log.virtual_comm_seconds
        loss = super().run_epoch(resolution, result)
        result.pool_bytes_recycled.append(
            pool.stats.bytes_recycled - recycled_before)
        result.pool_high_water_bytes = pool.stats.high_water_bytes
        result.virtual_comm_seconds += log.virtual_comm_seconds - comm_before
        if self.config.sync_batchnorm_stats:
            self._sync_bn_stats()
        return loss

    def _step(self, global_idx: np.ndarray, inputs, nus, masks, energy,
              result: DPResult) -> float:
        cfg, per_sample = self.config, self.compute_time_per_sample
        grads, losses, rank_times = [], [], []
        for rep, opt, shard in zip(self.replicas, self.optimizers,
                                   shard_batch(global_idx, cfg.world_size)):
            t0 = time.perf_counter()
            opt.zero_grad()
            losses.append(backward_pass(rep, inputs[shard], nus[shard],
                                        masks, energy))
            rank_times.append(time.perf_counter() - t0 if per_sample is None
                              else per_sample * len(shard))
            grads.append(flatten_gradients(rep.parameters()))

        reduced = self.comm.allreduce(grads, average=True)
        for rep, opt, g in zip(self.replicas, self.optimizers, reduced):
            unflatten_to_gradients(g, rep.parameters())
            opt.step()

        # Virtual clock: lockstep workers wait for the slowest.
        result.virtual_compute_seconds += max(rank_times)
        result.steps += 1

        if cfg.check_sync:
            self._assert_synced()
        # Global loss = mean of equally-sized local losses.
        return float(B.mean(losses))

    # ------------------------------------------------------------------ #
    def _sync_bn_stats(self) -> None:
        """Average batch-norm running statistics across replicas.

        Local batches see different samples, so running stats drift apart;
        averaging them keeps eval-mode behaviour rank-independent.
        """
        buffers = [dict(rep.named_buffers()) for rep in self.replicas]
        state = {f"buffer:{name}": B.mean(
            [np.asarray(b[name], dtype=np.float64) for b in buffers],
            axis=0).astype(np.asarray(ref).dtype)
            for name, ref in buffers[0].items()}
        for rep in self.replicas:
            rep.load_state_dict(state, strict=False)

    def _assert_synced(self) -> None:
        ref = self.replicas[0].state_dict()
        for i, rep in enumerate(self.replicas[1:], start=1):
            for k, v in rep.state_dict().items():
                if not B.allclose(v, ref[k], atol=0, rtol=0):
                    raise AssertionError(
                        f"replica {i} desynchronized at {k!r}")
