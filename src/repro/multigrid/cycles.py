"""Multigrid training cycle schedules (paper Fig. 3 / Sec. 3.1.2).

A schedule is a sequence of :class:`CycleStep` visits.  Training semantics
(Sec. 3.1.2, last paragraph):

* **restriction** visits train for a *fixed number of epochs* (convergence
  is unnecessary early on);
* **prolongation** visits train *until convergence* (early stopping).

Our generators mark the **last** visit of each level as a prolongation
visit and all earlier visits as restriction visits, which realizes that
rule for every cycle shape.

Cycle shapes over L levels (1 = finest).  V, W and F are one recursion
over :data:`COARSE_VISITS`, the coarse cycles each cycle makes below its
level; a level's repeated visits merge into one:

* ``V``      : 1 2 ... L ... 2 1
* ``W``      : two coarse W cycles, e.g. L=4: 1 2 3 4 3 4 3 2 3 4 3 4 3 2 1
* ``F``      : a coarse F cycle, then a coarse V cycle, e.g. L=4:
  1 2 3 4 3 4 3 2 3 4 3 2 1
* ``half_v`` : V's up-leg, L L-1 ... 1  (no training before the coarsest)
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CycleStep", "cycle_levels", "build_schedule", "STRATEGIES",
           "COARSE_VISITS"]

# The coarse-level cycles one cycle makes at every level (paper Fig. 3):
# V recurses once, W twice, F into F then V.  The training schedules
# below and the GMG solver (`repro.fem.gmg`) both walk this one table.
COARSE_VISITS = {"v": "v", "w": "ww", "f": "fv"}

STRATEGIES = (*COARSE_VISITS, "half_v")


@dataclass(frozen=True)
class CycleStep:
    """One visit of the schedule: a level and its training phase."""

    level: int
    phase: str  # "restriction" (fixed epochs) or "prolongation" (converge)

    def __post_init__(self) -> None:
        if self.phase not in ("restriction", "prolongation"):
            raise ValueError(f"unknown phase {self.phase!r}")


def _walk(cycle: str, level: int, levels: int) -> list[int]:
    """Levels one ``cycle`` at ``level`` visits: this level, then each
    coarse cycle of ``COARSE_VISITS[cycle]`` in turn, then this level
    again (repeats of a level not yet merged)."""
    if level == levels:
        return [levels]
    seq = [level]
    for sub in COARSE_VISITS[cycle]:
        seq += _walk(sub, level + 1, levels)
    return seq + [level]


def cycle_levels(strategy: str, levels: int) -> list[int]:
    """Level visit order of a strategy (1 = finest)."""
    if levels < 1:
        raise ValueError("levels must be >= 1")
    if strategy == "half_v":
        return cycle_levels("v", levels)[levels - 1:]
    if strategy not in COARSE_VISITS:
        raise ValueError(
            f"unknown strategy {strategy!r}; choose from {STRATEGIES}")
    seq = _walk(strategy, 1, levels)
    return [l for i, l in enumerate(seq) if i == 0 or l != seq[i - 1]]


def build_schedule(strategy: str, levels: int) -> list[CycleStep]:
    """Full schedule with phases assigned.

    The final visit of each level trains to convergence (prolongation);
    earlier visits use a fixed epoch budget (restriction).
    """
    seq = cycle_levels(strategy, levels)
    last_visit = {level: max(i for i, l in enumerate(seq) if l == level)
                  for level in set(seq)}
    return [CycleStep(level=l,
                      phase="prolongation" if i == last_visit[l] else "restriction")
            for i, l in enumerate(seq)]
