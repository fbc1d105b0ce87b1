"""Self-healing: background health probing with exponential backoff.

The fleet's own ``check_health()`` is an *operator* primitive — someone
has to call it, and it probes every cooled-down ejected shard every
time, which against a genuinely dead host means burning a full probe
timeout per call forever.  The prober turns recovery into a control
loop nobody has to babysit:

* each unhealthy shard gets its own probe schedule — first probe
  immediately, then exponential backoff (``base * 2^(fails-1)``,
  capped at ``max_backoff_s``) so a dead shard costs asymptotically
  one probe per ``max_backoff_s`` instead of one per tick;
* the backoff window is **full-jittered** from a seeded RNG (draw
  uniformly in ``[(1-jitter) * window, window]``): shards ejected by
  one correlated event — a burst of false hang ejections, a rack power
  blip — would otherwise share an identical schedule and probe in
  lockstep forever, hammering the fleet at the same instants.
  ``jitter=0.0`` restores the exact deterministic schedule;
* probes run through :meth:`ShardedFleet.probe_shard` with a *short*
  explicit budget (``probe_timeout_s``) — a hung shard eats that
  budget, not the 30 s recovery default the operator path uses;
* after ``permanent_after`` consecutive failures the shard is declared
  permanently lost and handed to
  :meth:`ShardedFleet.decommission_shard`, which removes it from the
  ring and re-registers its keys' models onto the replica sets the
  shrunken ring assigns — the fleet heals back to full R-way
  replication without an operator in the loop.

``tick(now)`` is the whole loop body and takes the clock as an
argument, so unit tests drive it with a forged clock and assert the
exact probe/backoff schedule; the background thread lives in
:class:`~repro.serve.control.plane.ControlPlane`, not here.
"""

from __future__ import annotations

import random
import time
from typing import TYPE_CHECKING, Callable

from ..resilience import backoff_window, jittered

if TYPE_CHECKING:
    from ..fleet import ShardedFleet

__all__ = ["HealthProber"]


class _ProbeRecord:
    __slots__ = ("fails", "next_probe_at")

    def __init__(self) -> None:
        self.fails = 0
        self.next_probe_at = 0.0   # 0 → probe immediately


class HealthProber:
    """Per-shard probe scheduler over one fleet.

    Parameters
    ----------
    fleet:
        The live :class:`~repro.serve.fleet.ShardedFleet` to heal.
    base_backoff_s / max_backoff_s:
        Exponential backoff window between probes of one failing shard.
    probe_timeout_s:
        Budget for each probe prediction — what a hung shard costs us.
    permanent_after:
        Consecutive probe failures before the shard is decommissioned
        and its keys re-replicated.  ``None`` disables permanent-loss
        handling (the prober backs off forever).
    clock:
        Monotonic-seconds source for the *schedule* (injectable; the
        probe prediction itself always runs in real time).
    jitter:
        Fraction of each backoff window randomized (full jitter by
        default): the wait is drawn uniformly from
        ``[(1-jitter) * window, window]``, de-synchronizing shards
        ejected by the same event.  ``0.0`` = the exact schedule.
    seed:
        Seed of the jitter RNG — two probers with one seed defer
        identically, so jittered runs stay reproducible.
    """

    def __init__(self, fleet: "ShardedFleet",
                 base_backoff_s: float = 0.05,
                 max_backoff_s: float = 2.0,
                 probe_timeout_s: float = 1.0,
                 permanent_after: int | None = None,
                 clock: Callable[[], float] = time.monotonic,
                 jitter: float = 1.0,
                 seed: int = 0) -> None:
        if base_backoff_s <= 0 or max_backoff_s < base_backoff_s:
            raise ValueError("need 0 < base_backoff_s <= max_backoff_s")
        if permanent_after is not None and permanent_after < 1:
            raise ValueError("permanent_after must be >= 1 (or None)")
        if not 0.0 <= jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        self.fleet = fleet
        self.base_backoff_s = float(base_backoff_s)
        self.max_backoff_s = float(max_backoff_s)
        self.probe_timeout_s = float(probe_timeout_s)
        self.permanent_after = permanent_after
        self.jitter = float(jitter)
        self._rng = random.Random(seed)
        self._clock = clock
        self._records: dict[str, _ProbeRecord] = {}
        self.probes = 0
        self.backoffs = 0          # probes *deferred* by a backoff window
        self.readmissions = 0
        self.decommissions = 0
        self.reregistrations = 0   # (key, shard) registrations from losses

    def next_probe_at(self, shard_id: str) -> float:
        """When the named shard's next probe is due (0 = immediately)."""
        record = self._records.get(shard_id)
        return record.next_probe_at if record is not None else 0.0

    def tick(self, now: float | None = None) -> list[str]:
        """Probe every unhealthy shard whose backoff has elapsed.

        Returns the shard ids probed this tick (readmitted or not) —
        the deterministic unit the forged-clock tests assert on.
        """
        now = self._clock() if now is None else now
        with self.fleet._lock:
            shards = list(self.fleet.shards)
        live_ids = {s.id for s in shards}
        # Records of shards that recovered (by any path: our probe, a
        # last-resort serve, an operator probe) or left the fleet reset
        # — a future ejection starts a fresh backoff schedule.
        for sid in list(self._records):
            if sid not in live_ids:
                del self._records[sid]
        probed: list[str] = []
        for shard in shards:
            if shard.healthy:
                self._records.pop(shard.id, None)
                continue
            record = self._records.setdefault(shard.id, _ProbeRecord())
            if now < record.next_probe_at:
                self.backoffs += 1
                continue
            probed.append(shard.id)
            self.probes += 1
            if self.fleet.probe_shard(shard,
                                      timeout_s=self.probe_timeout_s):
                self.readmissions += 1
                self._records.pop(shard.id, None)
                continue
            record.fails += 1
            if (self.permanent_after is not None
                    and record.fails >= self.permanent_after
                    and len(self.fleet.shards) > 1):
                # Permanently lost: remove from the ring and restore
                # full replication on the survivors.  A 1-shard fleet
                # never decommissions — there is nowhere to re-replicate
                # to, so keep probing at max backoff instead.
                moves = self.fleet.decommission_shard(shard.id)
                self.decommissions += 1
                self.reregistrations += moves
                self._records.pop(shard.id, None)
                continue
            # Shards ejected together draw different waits from the
            # shared seeded RNG (consumed in the deterministic
            # fleet.shards iteration order, so the whole jittered
            # schedule is still reproducible).
            record.next_probe_at = now + jittered(
                backoff_window(self.base_backoff_s, self.max_backoff_s,
                               record.fails - 1),
                self._rng, self.jitter)
        return probed
