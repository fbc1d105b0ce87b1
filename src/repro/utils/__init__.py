"""Shared utilities: seeding, text tables, VTK output."""

from .seeding import make_rng, spawn_rngs
from .viz import write_csv, format_table
from .vtk import write_vti

__all__ = [
    "make_rng", "spawn_rngs",
    "write_csv", "format_table",
    "write_vti",
]
