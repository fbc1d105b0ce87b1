"""Full Multigrid (FMG): the driver lives next to the solver whose hierarchy
it climbs, :mod:`repro.fem.gmg`; this module keeps its import path."""

from ..fem.gmg import FMGResult, full_multigrid_solve

__all__ = ["FMGResult", "full_multigrid_solve"]
