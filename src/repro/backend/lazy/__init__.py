"""Lazy op-graph backend: record, fuse, interpret, realize.

Public surface::

    from repro.backend.lazy import LazyBackend, LazyArray
    from repro.backend.lazy import realize, realize_all, is_lazy
    from repro.backend.lazy import lazy_stats, reset_lazy_stats

``lazy_stats()`` returns the scheduler's counters: ``clusters`` (fused
clusters realized, each run by the NumPy interpreter) and ``fused_ops``
(ops folded into them).  The fusion tests and ``bench_lazy_fusion`` read them.
"""

from .graph import LazyArray, is_lazy, realize, realize_all
from .ops_lazy import LazyBackend
from .schedule import schedule_stats as lazy_stats
from .schedule import reset_schedule_stats as reset_lazy_stats

__all__ = [
    "LazyBackend", "LazyArray", "realize", "realize_all", "is_lazy",
    "lazy_stats", "reset_lazy_stats",
]


def jit_enabled() -> bool:
    """Always False: there is no compiled path.  Kept for its one caller,
    ``bench/workloads/solve_gmg3d.py``, which reports it as
    ``backend.lazy.jit_available``."""
    return False
