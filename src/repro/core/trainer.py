"""Algorithm 1 of the paper, written once.

:func:`backward_pass` is its body for one local mini-batch (predict with
the BCs imposed exactly, FEM energy loss, back-propagate), the only place
a training loss is back-propagated.  :class:`Trainer` owns the one epoch
loop and the one phase loop, fronted by fixed-epoch training (multigrid
*restriction* visits) and early-stopped training (*prolongation* visits /
baselines).  A subclass overrides what a step *is* — the data-parallel
trainer shards it over replicas — never the loops, so whatever drives a
``Trainer`` (a multigrid cycle included) drives every trainer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..autograd import Tensor, no_grad
from ..backend.tuning import apply_training_policy
from ..data.dataloader import BatchSampler
from ..data.dataset import DiffusivityDataset
from ..optim import Adam, EarlyStopping, Optimizer
from .mgdiffnet import MGDiffNet
from .problem import PoissonProblem

__all__ = ["TrainConfig", "TrainResult", "Trainer", "backward_pass",
           "make_optimizer"]


@dataclass
class TrainConfig:
    """Hyperparameters for one training run.

    Paper settings: Adam, lr 1e-5, global batch 64 (multigrid study) /
    lr 1e-4 (scaling study).  The downscaled defaults here train the small
    test networks in seconds; pass paper values explicitly to mimic them.
    """

    batch_size: int = 8
    lr: float = 1e-3
    patience: int = 8
    min_delta: float = 1e-3
    min_epochs: int = 3
    seed: int = 0
    shuffle: bool = True
    # Multigrid phase budgets (Sec. 3.1.2), read by MultigridTrainer:
    # epochs per restriction visit, epoch cap per prolongation visit.
    restriction_epochs: int = 4
    max_epochs_per_level: int = 200


@dataclass
class TrainResult:
    """Per-phase training record."""

    resolution: int
    losses: list[float] = field(default_factory=list)
    epoch_times: list[float] = field(default_factory=list)
    wall_time: float = 0.0
    epochs_run: int = 0
    stopped_early: bool = False

    @property
    def final_loss(self) -> float:
        return self.losses[-1] if self.losses else float("nan")


def make_optimizer(config: TrainConfig, params) -> Optimizer:
    """The paper's optimizer, Adam at ``config.lr``, over ``params``."""
    return Adam(params, lr=config.lr)


def backward_pass(model: MGDiffNet, x: np.ndarray, nu: np.ndarray, masks,
                  energy) -> float:
    """Algorithm 1 for one local mini-batch, up to the optimizer step:
    predict under the Dirichlet ``masks``, energy loss, ``backward()``.
    Leaves the gradients on the parameters and returns the loss value; the
    graph dies with this frame, before the next batch's forward."""
    model.train()
    loss = energy(model(Tensor(x), *masks), nu)
    loss.backward()
    return float(loss.data)


class Trainer:
    """Algorithm 1 driver bound to a (model, problem, dataset) triple."""

    def __init__(self, model: MGDiffNet, problem: PoissonProblem,
                 dataset: DiffusivityDataset,
                 config: TrainConfig | None = None) -> None:
        self.model = model
        self.problem = problem
        self.dataset = dataset
        self.config = config or TrainConfig()
        self.optimizer = make_optimizer(self.config, model.parameters())
        self.global_epoch = 0  # distinct shuffles across phases

    def adapt(self, rng: np.random.Generator | int | None = None) -> None:
        """Architectural adaptation (Sec. 4.1.2): grow the model, then
        re-collect its parameters into the optimizer."""
        self.model.adapt(rng)
        self.optimizer.sync_params(self.model)

    # ------------------------------------------------------------------ #
    def _level(self, resolution: int):
        """(inputs, nus, masks, energy) of the dataset at a resolution."""
        inputs = self.dataset.inputs_at(resolution)
        return (inputs, self.dataset.nu_at(resolution),
                self.problem.masks(resolution, dtype=inputs.dtype),
                self.problem.energy(resolution, reduction="mean"))

    def _new_result(self, resolution: int) -> TrainResult:
        return TrainResult(resolution=resolution)

    def _step(self, idx: np.ndarray, inputs, nus, masks, energy,
              result: TrainResult | None) -> float:
        """One optimizer update on global batch ``idx``; returns its loss."""
        self.optimizer.zero_grad()
        loss = backward_pass(self.model, inputs[idx], nus[idx], masks, energy)
        self.optimizer.step()
        return loss

    def run_epoch(self, resolution: int,
                  result: TrainResult | None = None) -> float:
        """One epoch at the given resolution; returns the sample-weighted
        mean batch loss.  ``result`` is the ledger a step may charge."""
        cfg = self.config
        level = self._level(resolution)
        sampler = BatchSampler(len(self.dataset), cfg.batch_size,
                               seed=cfg.seed, shuffle=cfg.shuffle)
        total = 0.0
        for idx in sampler.batches(self.global_epoch):
            total += self._step(idx, *level, result) * len(idx)
        self.global_epoch += 1
        return total / max(len(self.dataset), 1)

    def evaluate_loss(self, resolution: int) -> float:
        """Mean energy over the dataset without updating weights."""
        inputs, nus, masks, energy = self._level(resolution)
        sampler = BatchSampler(len(self.dataset), self.config.batch_size,
                               shuffle=False)
        total = 0.0
        with self.model.evaluating(), no_grad():
            for idx in sampler.batches(0):
                u = self.model(Tensor(inputs[idx]), *masks)
                total += float(energy(u, nus[idx]).data) * len(idx)
        return total / max(len(self.dataset), 1)

    # ------------------------------------------------------------------ #
    def train_epochs(self, resolution: int, n_epochs: int) -> TrainResult:
        """Fixed-epoch training (multigrid restriction phase)."""
        return self._train(resolution, n_epochs, None)

    def train_until_converged(self, resolution: int,
                              max_epochs: int = 500) -> TrainResult:
        """Early-stopped training (prolongation phase / baseline)."""
        cfg = self.config
        return self._train(resolution, max_epochs, EarlyStopping(
            patience=cfg.patience, min_delta=cfg.min_delta,
            min_epochs=cfg.min_epochs))

    def _train(self, resolution: int, max_epochs: int,
               stopper: EarlyStopping | None) -> TrainResult:
        """The phase loop.  Every process of a data-parallel call sees the
        same epoch losses, so each stops at the same epoch on its own.
        One BLAS thread keeps the bits off the host's core count, and
        fixed malloc thresholds keep a warm step from page-faulting."""
        result = self._new_result(resolution)
        apply_training_policy()
        start = time.perf_counter()
        for _ in range(max_epochs):
            t0 = time.perf_counter()
            loss = self.run_epoch(resolution, result)
            result.epoch_times.append(time.perf_counter() - t0)
            result.losses.append(loss)
            result.epochs_run += 1
            if stopper is not None and stopper.update(loss):
                result.stopped_early = True
                break
        result.wall_time = time.perf_counter() - start
        return result
