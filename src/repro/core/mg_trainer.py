"""Multigrid training of MGDiffNet (Sec. 3.1.2 / 4.1 of the paper).

Executes a V / W / F / Half-V schedule over a resolution hierarchy:
restriction visits train a fixed number of epochs, prolongation visits
train to convergence, and (optionally) the architecture is adapted each
time training moves to a finer level (Sec. 4.1.2).  The schedule only
calls ``train_epochs`` / ``train_until_converged`` / ``adapt``, so it runs
over any trainer: over a ``repro.distributed.DataParallelTrainer`` it is
the paper's distributed multigrid.  Records everything needed for Table 1,
Table 2, Fig. 7 and Fig. 8.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..multigrid.cycles import CycleStep, build_schedule
from ..multigrid.hierarchy import GridHierarchy
from ..utils.seeding import make_rng
from .mgdiffnet import MGDiffNet
from .problem import PoissonProblem
from .trainer import TrainConfig, Trainer, TrainResult

__all__ = ["MGTrainConfig", "LevelRecord", "MGResult", "MultigridTrainer"]


# The phase budgets live on TrainConfig (any trainer's config can drive a
# cycle); the old name stays importable.
MGTrainConfig = TrainConfig


@dataclass
class LevelRecord:
    """One schedule visit: level trained, phase, and its outcome."""

    step_index: int
    level: int
    resolution: int
    phase: str
    result: TrainResult
    adapted: bool = False

    @property
    def wall_time(self) -> float:
        return self.result.wall_time


@dataclass
class MGResult:
    """Outcome of one multigrid training run."""

    strategy: str
    levels: int
    records: list[LevelRecord] = field(default_factory=list)
    total_time: float = 0.0

    @property
    def final_loss(self) -> float:
        """Loss at the end of the last finest-level visit."""
        for rec in reversed(self.records):
            if rec.level == 1:
                return rec.result.final_loss
        return self.records[-1].result.final_loss if self.records else float("nan")

    def time_per_level(self) -> dict[int, float]:
        """Wall time spent per level — the data behind Fig. 7."""
        out: dict[int, float] = {}
        for rec in self.records:
            out[rec.level] = out.get(rec.level, 0.0) + rec.wall_time
        return out

    def time_fraction_per_level(self) -> dict[int, float]:
        per = self.time_per_level()
        total = sum(per.values()) or 1.0
        return {k: v / total for k, v in per.items()}

    def loss_history(self) -> list[tuple[int, float, float]]:
        """Flattened (level, cumulative_time, loss) series (Fig. 8)."""
        out: list[tuple[int, float, float]] = []
        t = 0.0
        for rec in self.records:
            for dt, loss in zip(rec.result.epoch_times, rec.result.losses):
                t += dt
                out.append((rec.level, t, loss))
        return out


class MultigridTrainer:
    """Runs one multigrid training cycle over a resolution hierarchy.

    Parameters
    ----------
    model, problem, dataset, config:
        As for :class:`repro.core.trainer.Trainer`, which they build.
    trainer:
        Run the cycle over this trainer instead (e.g. a data-parallel
        one); the four arguments above are then unused.
    strategy:
        'v' | 'w' | 'f' | 'half_v' (Fig. 3).
    levels:
        Hierarchy depth (paper: 3 or 4).
    adapt:
        Enable architectural adaptation on every move to a finer level
        (Table 2 study).
    """

    def __init__(self, model: MGDiffNet | None = None,
                 problem: PoissonProblem | None = None, dataset=None,
                 strategy: str = "half_v", levels: int = 3,
                 config: TrainConfig | None = None, adapt: bool = False,
                 adapt_rng: np.random.Generator | int | None = None,
                 trainer: Trainer | None = None) -> None:
        self.trainer = trainer or Trainer(model, problem, dataset, config)
        self.config = self.trainer.config
        self.strategy = strategy
        self.levels = levels
        self.adapt = adapt
        self.adapt_rng = make_rng(adapt_rng)
        self.hierarchy = GridHierarchy(
            self.trainer.problem.resolution, levels,
            min_resolution=self.trainer.model.min_resolution)
        self.schedule: list[CycleStep] = build_schedule(strategy, levels)

    # ------------------------------------------------------------------ #
    def train(self) -> MGResult:
        result = MGResult(strategy=self.strategy, levels=self.levels)
        start = time.perf_counter()
        prev_level: int | None = None
        for i, step in enumerate(self.schedule):
            adapted = (self.adapt and prev_level is not None
                       and step.level < prev_level)
            if adapted:
                self.trainer.adapt(self.adapt_rng)
            res = self.hierarchy.resolution(step.level)
            if step.phase == "restriction":
                tr = self.trainer.train_epochs(res, self.config.restriction_epochs)
            else:
                tr = self.trainer.train_until_converged(
                    res, self.config.max_epochs_per_level)
            result.records.append(LevelRecord(
                step_index=i, level=step.level, resolution=res,
                phase=step.phase, result=tr, adapted=adapted))
            prev_level = step.level
        result.total_time = time.perf_counter() - start
        return result

    # ------------------------------------------------------------------ #
    def train_baseline(self) -> TrainResult:
        """Full training at the finest resolution — the paper's 'Base'."""
        return self.trainer.train_until_converged(
            self.hierarchy.resolution(1), self.config.max_epochs_per_level)
