"""Multigrid training machinery: hierarchies, field transfer, cycle
schedules (V / W / F / Half-V)."""

from .hierarchy import GridHierarchy
from .transfer import resample_linear, restrict_field, prolong_field
from .cycles import CycleStep, cycle_levels, build_schedule, STRATEGIES

__all__ = [
    "GridHierarchy",
    "resample_linear", "restrict_field", "prolong_field",
    "CycleStep", "cycle_levels", "build_schedule", "STRATEGIES",
]
