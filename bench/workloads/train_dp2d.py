"""train_dp2d — simulated data-parallel training (paper Figs. 9/10).

``DataParallelTrainer`` on ``PoissonProblem2D(64)``,
``MGDiffNet(ndim=2, base_filters=8, depth=2)``, 64 samples, global batch
8, Bridges-2 ring all-reduce cost model.  The headline operation is one
``train_epochs(64, 1)`` epoch at ``world_size=4``; work items are
training samples (64 per epoch).  The traced pass also runs the plain
``world_size=1`` baseline with the same global batch.

The same autograd/conv layer as ``train_mg3d`` used differently (2D
kernels, local batch 2, many small ops), and the only workload where the
ring all-reduce, gradient flatten/unflatten and per-rank optimizers run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro import MGDiffNet, PoissonProblem2D
from repro.autograd import Tensor, profile
from repro.backend import ops as B
from repro.data.dataloader import BatchSampler, shard_batch
from repro.distributed import (DataParallelTrainer, DPConfig,
                               flatten_gradients, unflatten_to_gradients)
from repro.perf import BRIDGES2_CPU
from repro.perf.model import ring_allreduce_time

from .. import harness
from . import Measured
from .common import (AUTOGRAD_NAMES, BACKEND_NAMES, TRACE_NAMES,
                     autograd_metrics, backend_metrics,
                     finite_and_decreasing, materialize, rng_for,
                     seeded_dataset)

RESOLUTION = 64
SAMPLES = 64
GLOBAL_BATCH = 8
WORLD_SIZE = 4
BASELINE_EPOCHS = 3     # world_size=1 epochs in the traced pass
TRACED_EPOCHS = 2

STEP_SPANS = {"nn.forward": "nn.forward_s", "fem.energy": "fem.energy_s",
              "autograd.backward": "autograd.backward_s",
              "optim.step": "optim.step_s",
              "distributed.allreduce": "distributed.allreduce_s",
              "distributed.flatten": "distributed.flatten_s",
              "distributed.epoch": "distributed.step_self_s"}

PER_LAYER = (
    ("data.materialize_s",)
    + tuple(STEP_SPANS.values())
    + ("distributed.allreduce_calls", "distributed.allreduce_bytes",
       "distributed.virtual_epoch_s", "distributed.scaling_eff.w4",
       "distributed.w1_epoch_s", "distributed.overhead_ratio")
    + AUTOGRAD_NAMES + BACKEND_NAMES + TRACE_NAMES)


@dataclass
class State:
    trainer: DataParallelTrainer
    problem: object
    dataset: object
    model_seed: int
    materialize_s: float
    warmup_loss: float


def make_inputs(seed: int, part: int) -> dict[str, np.ndarray]:
    return {"omegas": rng_for(seed, part, 0).uniform(-3.0, 3.0, (SAMPLES, 4)),
            "model_seed": np.array([seed], dtype=np.int64)}


def _bridges2_allreduce_s(message_bytes: int, world_size: int) -> float:
    return ring_allreduce_time(message_bytes, world_size, BRIDGES2_CPU)


def _trainer(problem, dataset, model_seed: int, world_size: int):
    return DataParallelTrainer(
        lambda: MGDiffNet(ndim=2, base_filters=8, depth=2, rng=model_seed),
        problem, dataset,
        DPConfig(world_size=world_size, batch_size=GLOBAL_BATCH),
        comm_time_model=_bridges2_allreduce_s)


def setup(inputs) -> State:
    problem = PoissonProblem2D(RESOLUTION)
    dataset = seeded_dataset(problem, inputs["omegas"])
    t0 = time.perf_counter()
    materialize(dataset, [RESOLUTION])
    materialize_s = time.perf_counter() - t0
    model_seed = int(inputs["model_seed"][0])
    trainer = _trainer(problem, dataset, model_seed, WORLD_SIZE)
    warm = trainer.train_epochs(RESOLUTION, 1)       # warm-up epoch
    return State(trainer=trainer, problem=problem, dataset=dataset,
                 model_seed=model_seed, materialize_s=materialize_s,
                 warmup_loss=warm.losses[0])


def teardown(state: State) -> None:
    pass


def measure(state: State, seconds: float) -> Measured:
    results = []
    walls = harness.run_for(
        lambda: results.append(state.trainer.train_epochs(RESOLUTION, 1)),
        seconds)
    return Measured(op_ms=[w * 1e3 for w in walls],
                    items=SAMPLES * len(results), wall_s=sum(walls),
                    attempted=len(results), keep={"results": results})


def _replicas_differ(trainer) -> list[str]:
    ref = trainer.replicas[0].state_dict()
    return [f"replica {i} differs from replica 0 at {key!r}"
            for i, rep in enumerate(trainer.replicas[1:], start=1)
            for key, value in rep.state_dict().items()
            if not np.array_equal(value, ref[key])]


def check(state: State, measured: Measured) -> list[str]:
    losses = [state.warmup_loss] + [r.losses[0]
                                    for r in measured.keep["results"]]
    return (finite_and_decreasing(losses, "world_size=4")
            + _replicas_differ(state.trainer))


# --------------------------------------------------------------------- #
# Traced pass
# --------------------------------------------------------------------- #
def _sync_bn_stats(replicas) -> None:
    """The trainer's per-epoch batch-norm averaging, from public pieces."""
    buffers = [dict(rep.named_buffers()) for rep in replicas]
    for name in buffers[0]:
        old = [b[name] for b in buffers]
        mean = B.mean([np.asarray(b, dtype=np.float64) for b in old], axis=0)
        *path, leaf = name.split(".")
        for rep, before in zip(replicas, old):
            owner = rep
            for attr in path:
                owner = getattr(owner, attr)
            owner.update_buffer(leaf, mean.astype(np.asarray(before).dtype))


def _traced_epoch(trainer: DataParallelTrainer, rec) -> float:
    """``DataParallelTrainer.train_epochs(RESOLUTION, 1)`` rebuilt from
    its public pieces, one span per layer call; must return the same
    epoch loss, bit for bit."""
    cfg = trainer.config
    inputs = trainer.dataset.inputs_at(RESOLUTION)
    nus = trainer.dataset.nu_at(RESOLUTION)
    chi_int, u_bc = trainer.problem.masks(RESOLUTION, dtype=inputs.dtype)
    energy = trainer.problem.energy(RESOLUTION, reduction="mean")
    sampler = BatchSampler(len(trainer.dataset), cfg.batch_size,
                           seed=cfg.seed, shuffle=cfg.shuffle)
    epoch_loss, batches = 0.0, 0
    for global_idx in sampler.batches(trainer.global_epoch):
        grads, losses = [], []
        for rep, opt, shard in zip(trainer.replicas, trainer.optimizers,
                                   shard_batch(global_idx, cfg.world_size)):
            rep.train()
            x = Tensor(inputs[shard])
            with rec.span("nn.forward"):
                u = rep(x, chi_int, u_bc)
            with rec.span("fem.energy"):
                loss = energy(u, nus[shard])
            opt.zero_grad()
            with rec.span("autograd.backward"):
                loss.backward()
            with rec.span("distributed.flatten"):
                grads.append(flatten_gradients(rep.parameters()))
            losses.append(float(loss.data))
        with rec.span("distributed.allreduce"):
            reduced = trainer.comm.allreduce(grads, average=True)
        for rep, opt, g in zip(trainer.replicas, trainer.optimizers, reduced):
            with rec.span("distributed.flatten"):
                unflatten_to_gradients(g, rep.parameters())
            with rec.span("optim.step"):
                opt.step()
        epoch_loss += float(B.mean(losses))
        batches += 1
    if cfg.sync_batchnorm_stats:
        _sync_bn_stats(trainer.replicas)
    trainer.global_epoch += 1
    return epoch_loss / max(batches, 1)


def trace(state: State, inputs, seconds: float, rec):
    # Untraced reference epochs at world_size=4 on the worker's own state.
    reference = [state.trainer.train_epochs(RESOLUTION, 1)
                 for _ in range(TRACED_EPOCHS)]
    w4_epoch_s = harness.median([r.measured_wall for r in reference])
    log = state.trainer.comm.log
    metrics = {
        "data.materialize_s": state.materialize_s,
        "distributed.allreduce_calls": log.allreduce_calls,
        "distributed.allreduce_bytes": log.allreduce_bytes,
        "distributed.virtual_epoch_s": reference[-1].virtual_epoch_seconds,
    }
    metrics.update(backend_metrics())

    # The plain single-worker baseline: same global batch, world_size=1.
    single = _trainer(state.problem, state.dataset, state.model_seed, 1)
    single.train_epochs(RESOLUTION, 1)
    base = [single.train_epochs(RESOLUTION, 1)
            for _ in range(BASELINE_EPOCHS)]
    w1_epoch_s = harness.median([r.measured_wall for r in base])
    metrics["distributed.w1_epoch_s"] = w1_epoch_s
    metrics["distributed.overhead_ratio"] = w4_epoch_s / w1_epoch_s
    # Fig. 10: virtual-clock epoch at 1 worker over 4 x that at 4 workers.
    metrics["distributed.scaling_eff.w4"] = (
        base[-1].virtual_epoch_seconds
        / (WORLD_SIZE * reference[-1].virtual_epoch_seconds))

    # The same epochs from the same start, span by span.
    twin = setup(inputs).trainer
    traced_losses = []
    with rec.span("bench.epochs") as root, profile() as prof:
        for _ in range(TRACED_EPOCHS):
            with rec.span("distributed.epoch"):
                traced_losses.append(_traced_epoch(twin, rec))
    traced_epoch_s = (root.end - root.start) / TRACED_EPOCHS

    by_name = harness.self_seconds_by_name(rec.spans)
    for span_name, metric in STEP_SPANS.items():      # seconds per epoch
        metrics[metric] = by_name.get(span_name, 0.0) / TRACED_EPOCHS
    network_s = sum(by_name.get(n, 0.0) for n in
                    ("nn.forward", "fem.energy", "autograd.backward"))
    metrics.update(autograd_metrics(prof, network_s, TRACED_EPOCHS))
    metrics["trace_overhead_frac"] = traced_epoch_s / w4_epoch_s - 1.0
    metrics["trace_unattributed_frac"] = harness.unattributed_frac(rec.spans)

    failures = _replicas_differ(twin)
    if traced_losses != [r.losses[0] for r in reference]:
        failures.append("traced epoch losses differ from the untraced epochs")
    for key, value in twin.model.state_dict().items():
        if not np.array_equal(value, state.trainer.model.state_dict()[key]):
            failures.append(f"traced and untraced weights differ at {key!r}")
            break
    return metrics, failures
