"""train_mg3d — multigrid V-cycle training of the 3D solver (paper Figs. 2/7).

``MultigridTrainer(strategy="v", levels=3)`` on ``PoissonProblem3D(32)``
(levels 32^3 / 16^3 / 8^3), ``MGDiffNet(ndim=3, base_filters=4, depth=2)``,
8 samples, batch 4.  ``patience`` is out of reach, so every visit runs a
fixed epoch count: 11 epochs per cycle, 4 of them at 32^3.  The headline
operation is one ``trainer.train()`` V-cycle; work items are training
samples processed (88 per cycle).

3D conv forward and backward, BatchNorm, the FEM energy loss and Adam do
nearly all the work here; ``distributed`` and ``serve`` do none.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro import MGDiffNet, MGTrainConfig, MultigridTrainer, PoissonProblem3D
from repro.autograd import Tensor, profile
from repro.data.dataloader import BatchSampler

from .. import harness
from . import Measured
from .common import (AUTOGRAD_NAMES, BACKEND_NAMES, TRACE_NAMES,
                     autograd_metrics, backend_metrics,
                     finite_and_decreasing, materialize, rng_for,
                     seeded_dataset)

RESOLUTION = 32
LEVELS = 3
SAMPLES = 8
EPOCHS_PER_CYCLE = 11

STEP_SPANS = {"nn.forward": "nn.forward_s", "fem.energy": "fem.energy_s",
              "autograd.backward": "autograd.backward_s",
              "optim.step": "optim.step_s", "core.epoch": "core.step_self_s"}

PER_LAYER = (
    ("data.materialize_s",)
    + tuple(f"core.level_s.L{i}" for i in (1, 2, 3))
    + tuple(f"core.epochs.L{i}" for i in (1, 2, 3))
    + ("core.finest_epoch_s",)
    + tuple(STEP_SPANS.values())
    + AUTOGRAD_NAMES + BACKEND_NAMES + TRACE_NAMES)


@dataclass
class State:
    mg: MultigridTrainer
    materialize_s: float


def make_inputs(seed: int, part: int) -> dict[str, np.ndarray]:
    return {"omegas": rng_for(seed, part, 0).uniform(-3.0, 3.0, (SAMPLES, 4)),
            "model_seed": np.array([seed], dtype=np.int64)}


def setup(inputs) -> State:
    problem = PoissonProblem3D(RESOLUTION)
    dataset = seeded_dataset(problem, inputs["omegas"])
    model = MGDiffNet(ndim=3, base_filters=4, depth=2,
                      rng=int(inputs["model_seed"][0]))
    config = MGTrainConfig(batch_size=4, restriction_epochs=1,
                           max_epochs_per_level=3, patience=10 ** 6)
    mg = MultigridTrainer(model, problem, dataset, strategy="v",
                          levels=LEVELS, config=config)
    resolutions = [mg.hierarchy.resolution(lv) for lv in (1, 2, 3)]
    t0 = time.perf_counter()
    materialize(dataset, resolutions)
    materialize_s = time.perf_counter() - t0
    for r in resolutions:                    # warm-up: one epoch per level
        mg.trainer.train_epochs(r, 1)
    return State(mg=mg, materialize_s=materialize_s)


def teardown(state: State) -> None:
    pass


def measure(state: State, seconds: float) -> Measured:
    results = []
    walls = harness.run_for(lambda: results.append(state.mg.train()), seconds)
    return Measured(op_ms=[w * 1e3 for w in walls],
                    items=SAMPLES * sum(rec.result.epochs_run
                                        for res in results
                                        for rec in res.records),
                    wall_s=sum(walls),
                    attempted=len(results) * EPOCHS_PER_CYCLE,
                    keep={"results": results})


def _finest_losses(results) -> list[float]:
    return [loss for res in results for rec in res.records
            if rec.level == 1 for loss in rec.result.losses]


def check(state: State, measured: Measured) -> list[str]:
    results = measured.keep["results"]
    failures = []
    for res in results:
        epochs = sum(rec.result.epochs_run for rec in res.records)
        if epochs != EPOCHS_PER_CYCLE:
            failures.append(f"cycle ran {epochs} epochs, expected "
                            f"{EPOCHS_PER_CYCLE}")
        for rec in res.records:
            if not all(np.isfinite(rec.result.losses)):
                failures.append(f"non-finite loss at level {rec.level}")
    return failures + finite_and_decreasing(_finest_losses(results),
                                            "finest level")


# --------------------------------------------------------------------- #
# Traced pass
# --------------------------------------------------------------------- #
def _traced_epoch(trainer, resolution: int, rec) -> float:
    """``Trainer.run_epoch`` rebuilt from its public pieces, one span per
    layer call.  Same sampler, same order of operations, same loss
    arithmetic: the per-epoch loss must equal the untraced one exactly."""
    cfg = trainer.config
    inputs = trainer.dataset.inputs_at(resolution)
    nus = trainer.dataset.nu_at(resolution)
    chi_int, u_bc = trainer.problem.masks(resolution, dtype=inputs.dtype)
    energy = trainer.problem.energy(resolution, reduction="mean")
    sampler = BatchSampler(len(trainer.dataset), cfg.batch_size,
                           seed=cfg.seed, shuffle=cfg.shuffle)
    trainer.model.train()
    total, count = 0.0, 0
    for idx in sampler.batches(trainer.global_epoch):
        x = Tensor(inputs[idx])
        with rec.span("nn.forward"):
            u = trainer.model(x, chi_int, u_bc)
        with rec.span("fem.energy"):
            loss = energy(u, nus[idx])
        trainer.optimizer.zero_grad()
        with rec.span("autograd.backward"):
            loss.backward()
        with rec.span("optim.step"):
            trainer.optimizer.step()
        total += float(loss.data) * len(idx)
        count += len(idx)
    trainer.global_epoch += 1
    return total / max(count, 1)


def _traced_cycle(mg: MultigridTrainer, rec) -> list[list[float]]:
    """``MultigridTrainer.train`` for a schedule whose visits all run a
    fixed number of epochs; losses grouped per visit like its records."""
    cfg = mg.config
    losses = []
    for step in mg.schedule:
        resolution = mg.hierarchy.resolution(step.level)
        epochs = (cfg.restriction_epochs if step.phase == "restriction"
                  else cfg.max_epochs_per_level)
        visit = []
        for _ in range(epochs):
            with rec.span("core.epoch"):
                visit.append(_traced_epoch(mg.trainer, resolution, rec))
        losses.append(visit)
    return losses


def trace(state: State, inputs, seconds: float, rec):
    # Untraced reference cycle on the worker's own state ...
    t0 = time.perf_counter()
    result = state.mg.train()
    untraced_s = time.perf_counter() - t0
    metrics = {"data.materialize_s": state.materialize_s}
    per_level = result.time_per_level()
    for level in (1, 2, 3):
        metrics[f"core.level_s.L{level}"] = per_level[level]
        metrics[f"core.epochs.L{level}"] = sum(
            r.result.epochs_run for r in result.records if r.level == level)
    metrics["core.finest_epoch_s"] = harness.median(
        [t for r in result.records if r.level == 1
         for t in r.result.epoch_times])
    metrics.update(backend_metrics())

    # ... and the same cycle, from the same start, span by span.
    twin = setup(inputs)
    with rec.span("bench.cycle") as root, profile() as prof:
        traced_losses = _traced_cycle(twin.mg, rec)
    traced_s = root.end - root.start

    by_name = harness.self_seconds_by_name(rec.spans)
    for span_name, metric in STEP_SPANS.items():
        metrics[metric] = by_name.get(span_name, 0.0)
    network_s = sum(by_name.get(n, 0.0) for n in
                    ("nn.forward", "fem.energy", "autograd.backward"))
    metrics.update(autograd_metrics(prof, network_s))
    metrics["trace_overhead_frac"] = traced_s / untraced_s - 1.0
    metrics["trace_unattributed_frac"] = harness.unattributed_frac(rec.spans)

    failures = []
    if traced_losses != [r.result.losses for r in result.records]:
        failures.append("traced cycle losses differ from the untraced cycle")
    return metrics, failures
