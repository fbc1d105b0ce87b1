"""Multigrid training cycle schedules (paper Fig. 3 / Sec. 3.1.2).

A schedule is a sequence of :class:`CycleStep` visits.  Training semantics
(Sec. 3.1.2, last paragraph):

* **restriction** visits train for a *fixed number of epochs* (convergence
  is unnecessary early on);
* **prolongation** visits train *until convergence* (early stopping).

Our generators mark the **last** visit of each level as a prolongation
visit and all earlier visits as restriction visits, which realizes that
rule for every cycle shape.

Cycle shapes over L levels (1 = finest):

* ``V``      : 1 2 ... L ... 2 1
* ``half_v`` : L L-1 ... 1           (no training before the coarsest)
* ``W``      : recursive gamma=2, e.g. L=3: 1 2 3 2 3 2 1
* ``F``      : V-shaped descent with a dip to the coarsest after each
  level is reached on the way up, e.g. L=4: 1 2 3 4 3 4 3 2 3 4 3 2 1
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CycleStep", "cycle_levels", "build_schedule", "STRATEGIES"]

STRATEGIES = ("v", "w", "f", "half_v")


@dataclass(frozen=True)
class CycleStep:
    """One visit of the schedule: a level and its training phase."""

    level: int
    phase: str  # "restriction" (fixed epochs) or "prolongation" (converge)

    def __post_init__(self) -> None:
        if self.phase not in ("restriction", "prolongation"):
            raise ValueError(f"unknown phase {self.phase!r}")


def _merge_adjacent(seq: list[int]) -> list[int]:
    out: list[int] = []
    for level in seq:
        if not out or out[-1] != level:
            out.append(level)
    return out


def _v_levels(levels: int) -> list[int]:
    down = list(range(1, levels + 1))
    up = list(range(levels - 1, 0, -1))
    return down + up


def _half_v_levels(levels: int) -> list[int]:
    return list(range(levels, 0, -1))


def _w_levels(levels: int) -> list[int]:
    def rec(l: int) -> list[int]:
        if l == levels:
            return [levels]
        return [l] + rec(l + 1) + rec(l + 1) + [l]

    return _merge_adjacent(rec(1))


def _f_levels(levels: int) -> list[int]:
    def v(l: int) -> list[int]:
        if l == levels:
            return [levels]
        return [l] + v(l + 1) + [l]

    def f(l: int) -> list[int]:
        if l == levels:
            return [levels]
        return [l] + f(l + 1) + v(l + 1) + [l]

    return _merge_adjacent(f(1))


def cycle_levels(strategy: str, levels: int) -> list[int]:
    """Level visit order of a strategy (1 = finest)."""
    if levels < 1:
        raise ValueError("levels must be >= 1")
    strategy = strategy.lower().replace("-", "_").replace(" ", "_")
    if strategy in ("v", "v_cycle"):
        return _v_levels(levels)
    if strategy in ("w", "w_cycle"):
        return _w_levels(levels)
    if strategy in ("f", "f_cycle"):
        return _f_levels(levels)
    if strategy in ("half_v", "halfv", "half_v_cycle"):
        return _half_v_levels(levels)
    raise ValueError(f"unknown strategy {strategy!r}; choose from {STRATEGIES}")


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
