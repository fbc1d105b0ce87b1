"""Op-level profiler for the autograd engine.

'No optimization without measuring' — while a :class:`profile` is open,
``Function.apply`` and ``Tensor.backward``'s per-node dispatch time every
op into it, so hot spots (invariably the N-d convolutions) can be
identified without external tooling.

Both read one module-level tuple, :data:`running`, of the profiles that
are open.  Opening and closing replace the tuple, never mutate it, so an
op reads it once without a lock, and profiles may close in any order (two
threads' sessions interleave).  Profiles are process-wide: an op on any
thread records into every open profile, and a backward step into the
profiles open when it runs.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from ..backend import PoolStats, get_pool

__all__ = ["OpStats", "Profile", "profile"]


@dataclass
class OpStats:
    """Accumulated statistics for one op type."""

    calls: int = 0
    seconds: float = 0.0


@dataclass
class Profile:
    """Result of a profiling session.

    ``pool`` is the active backend's buffer-pool activity over the
    session: the counters as deltas, ``bytes_pooled`` and
    ``high_water_bytes`` as read at its close.
    """

    forward: dict[str, OpStats] = field(default_factory=dict)
    backward: dict[str, OpStats] = field(default_factory=dict)
    pool: PoolStats | None = None

    def total_seconds(self) -> float:
        return (sum(s.seconds for s in self.forward.values())
                + sum(s.seconds for s in self.backward.values()))


running: tuple[Profile, ...] = ()
_running_lock = threading.Lock()


def record(profiles: tuple[Profile, ...], direction: str, name: str,
           seconds: float) -> None:
    """Count one ``direction`` ("forward" or "backward") call of op
    ``name`` taking ``seconds`` into each of ``profiles``."""
    for prof in profiles:
        stats = getattr(prof, direction).setdefault(name, OpStats())
        stats.calls += 1
        stats.seconds += seconds


class profile:
    """Context manager capturing op timings.

    Usage::

        with profile() as prof:
            loss = model(x, chi, ubc); loss.backward()
        prof.forward["ConvNd"].seconds
    """

    def __enter__(self) -> Profile:
        global running
        self.result = Profile()
        self._pool_before = get_pool().stats.snapshot()
        with _running_lock:
            running = running + (self.result,)
        return self.result

    def __exit__(self, *exc) -> None:
        global running
        with _running_lock:
            running = tuple(p for p in running if p is not self.result)
        after, before = get_pool().stats.snapshot(), self._pool_before
        self.result.pool = PoolStats(
            hits=after.hits - before.hits,
            misses=after.misses - before.misses,
            evictions=after.evictions - before.evictions,
            bytes_pooled=after.bytes_pooled,
            bytes_recycled=after.bytes_recycled - before.bytes_recycled,
            high_water_bytes=after.high_water_bytes)
