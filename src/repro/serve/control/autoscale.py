"""Queue-depth-driven elasticity: spawn and retire shards under load.

The signal is the mean queue depth (pending + in-flight) across healthy
shards — the same gauge the p2c balancer reads per-request, aggregated
per-fleet.  Mean depth above ``scale_up_depth`` means requests are
waiting everywhere (not just on one hot shard, which is the balancer's
problem); below ``scale_down_depth`` the fleet is paying for idle
shards.

Two guards keep the loop from thrashing:

* **hysteresis streaks** — a scale decision needs the signal to hold
  for ``up_streak`` (resp. ``down_streak``) consecutive ticks, so one
  bursty tick cannot spawn a shard and the next retire it;
* **a dead band** — anything between the two thresholds resets both
  streaks, so the loop is quiescent at moderate load.

Scaling actuates through the fleet's own membership primitives:
``add_shard`` (reconcile-before-swap: the newcomer holds every model
the new ring routes to it before any request can arrive) and
``retire_shard`` (the victim leaves the ring, keeps serving its queued
work, drains, then closes).  Consistent hashing makes both moves cheap
— only the keys whose replica sets actually change re-register.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    from ..fleet import ShardedFleet

__all__ = ["Autoscaler"]


class Autoscaler:
    """Hysteresis-guarded scale controller over one fleet.

    ``tick()`` samples the load gauge and may perform at most one
    membership change; it returns ``"up"``, ``"down"`` or ``None`` so
    forged-clock tests can assert the exact decision sequence.
    """

    def __init__(self, fleet: "ShardedFleet",
                 min_shards: int = 1, max_shards: int = 8,
                 scale_up_depth: float = 8.0,
                 scale_down_depth: float = 0.5,
                 up_streak: int = 2, down_streak: int = 3,
                 drain_timeout_s: float = 10.0,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if not 1 <= min_shards <= max_shards:
            raise ValueError("need 1 <= min_shards <= max_shards")
        if scale_down_depth >= scale_up_depth:
            raise ValueError("scale_down_depth must sit below "
                             "scale_up_depth (the dead band)")
        if up_streak < 1 or down_streak < 1:
            raise ValueError("streaks must be >= 1")
        self.fleet = fleet
        self.min_shards = int(min_shards)
        self.max_shards = int(max_shards)
        self.scale_up_depth = float(scale_up_depth)
        self.scale_down_depth = float(scale_down_depth)
        self.up_streak = int(up_streak)
        self.down_streak = int(down_streak)
        self.drain_timeout_s = float(drain_timeout_s)
        self._up = 0
        self._down = 0
        self.scale_ups = 0
        self.scale_downs = 0
        self.last_depth = 0.0

    def mean_depth(self) -> float:
        """Mean queue depth across healthy shards (all, if none are)."""
        with self.fleet._lock:
            shards = [s for s in self.fleet.shards if s.healthy]
            shards = shards or list(self.fleet.shards)
        if not shards:
            return 0.0
        return sum(s.queue_depth for s in shards) / len(shards)

    def tick(self, now: float | None = None) -> str | None:
        """Sample load, update streaks, actuate at most one change."""
        depth = self.last_depth = self.mean_depth()
        n = len(self.fleet.shards)
        if depth >= self.scale_up_depth and n < self.max_shards:
            self._up += 1
            self._down = 0
            if self._up >= self.up_streak:
                self._up = 0
                self.fleet.add_shard()
                self.scale_ups += 1
                return "up"
        elif depth <= self.scale_down_depth and n > self.min_shards:
            self._down += 1
            self._up = 0
            if self._down >= self.down_streak:
                self._down = 0
                self.fleet.retire_shard(
                    drain_timeout_s=self.drain_timeout_s)
                self.scale_downs += 1
                return "down"
        else:
            # Dead band (or at a bound): quiescent, streaks reset.
            self._up = self._down = 0
        return None
