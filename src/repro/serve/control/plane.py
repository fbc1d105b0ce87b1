"""The control plane: the health prober's loop over a live fleet, plus
the per-tick SLO gauges.

The fleet is mechanism: it *can* eject, probe, re-admit and decommission
— if someone calls the right method at the right time.  This module is
the loop that does the calling, in two parts: a **deterministic core** (``tick(now)`` — pure function
of the injected clock and the fleet's state, unit-testable with forged
clocks) and an **optional real-time shell** (``start()`` spawns a daemon
thread that ticks every ``tick_interval_s``; ``stop()`` joins it).
Chaos tests run the thread for realism; unit tests call ``tick``
directly and never sleep.

The plane installs nothing on the fleet's request path.  The prober
holds no fleet state at all — it only calls public fleet primitives
(``probe_shard`` / ``decommission_shard``), each of which preserves the
request conservation law on its own, so the loop does too.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from .prober import HealthProber

if TYPE_CHECKING:
    from ..fleet import ShardedFleet

__all__ = ["ControlConfig", "ControlStats", "ControlPlane"]

# ControlStats counters, re-registered as ``stats.control.*`` views.
_STAT_NAMES = ("ticks", "probes", "backoffs", "readmissions",
               "decommissions", "reregistrations")


@dataclass(frozen=True)
class ControlConfig:
    """Tunables of one :class:`ControlPlane`."""

    probe_base_backoff_s: float = 0.05
    probe_max_backoff_s: float = 2.0
    probe_timeout_s: float = 1.0
    # Consecutive probe failures before a shard is declared permanently
    # lost, decommissioned, and its keys re-replicated.  None: never.
    permanent_after: int | None = None
    # Fraction of each probe backoff window randomized (full jitter by
    # default) so simultaneously-ejected shards don't probe in
    # lockstep; 0.0 restores the exact deterministic schedule.
    probe_jitter: float = 1.0
    # Real-time shell.
    tick_interval_s: float = 0.05


@dataclass
class ControlStats:
    """Control-loop counters (fleet counters live in ``FleetStats``)."""

    ticks: int = 0
    probes: int = 0
    backoffs: int = 0
    readmissions: int = 0
    decommissions: int = 0
    reregistrations: int = 0


class ControlPlane:
    """Policy loop over one :class:`~repro.serve.fleet.ShardedFleet`.

    Usage (deterministic)::

        plane = ControlPlane(fleet, ControlConfig(permanent_after=4),
                             clock=forged.now)
        plane.tick(now=t)                  # one loop body, no threads

    Usage (real time)::

        with fleet, ControlPlane(fleet, cfg) as plane:
            ... serve traffic; the plane heals behind ...
        plane.stats.readmissions
    """

    def __init__(self, fleet: "ShardedFleet",
                 config: ControlConfig | None = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.fleet = fleet
        self.config = config or ControlConfig()
        self._clock = clock
        self._ticks = 0
        self._views_registered = False
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        cfg = self.config
        self.prober = HealthProber(
            fleet,
            base_backoff_s=cfg.probe_base_backoff_s,
            max_backoff_s=cfg.probe_max_backoff_s,
            probe_timeout_s=cfg.probe_timeout_s,
            permanent_after=cfg.permanent_after,
            clock=clock,
            jitter=cfg.probe_jitter)

    # ------------------------------------------------------------------ #
    # Deterministic core
    # ------------------------------------------------------------------ #
    def tick(self, now: float | None = None) -> None:
        """One control-loop body: heal, then stamp the SLO gauges."""
        now = self._clock() if now is None else now
        self._ticks += 1
        self.prober.tick(now)
        telemetry = getattr(self.fleet, "telemetry", None)
        if telemetry is not None:
            self._record_slo(telemetry, now)

    def _record_slo(self, telemetry, now: float) -> None:
        """Stamp the per-tick SLO trajectory into the metrics registry.

        Gauges carry a bounded ``(t, value)`` history, so a replayed
        storm can assert the whole trajectory — p99 spiking and
        recovering, the healthy-shard count dipping and healing — not
        just the final value.  ``ControlStats`` counters are lazily
        re-registered as read-time ``stats.control.*`` views on the
        first telemetry-visible tick.
        """
        reg = telemetry.metrics
        if not self._views_registered:
            self._views_registered = True
            for name in _STAT_NAMES:
                reg.register_view(f"stats.control.{name}",
                                  lambda n=name: getattr(self.stats, n))
        stats = self.fleet.stats
        reg.counter("control.ticks").inc()
        reg.gauge("slo.p99_ms").set(stats.p99 * 1e3, t=now)
        reg.gauge("slo.healthy_shards").set(stats.healthy_shards, t=now)
        depth = sum(s.queue_depth for s in list(self.fleet.shards))
        reg.gauge("slo.queue_depth").set(depth, t=now)

    # ------------------------------------------------------------------ #
    # Real-time shell
    # ------------------------------------------------------------------ #
    def start(self) -> "ControlPlane":
        """Spawn the background tick thread (idempotent)."""
        if self._thread is not None and self._thread.is_alive():
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="control-plane", daemon=True)
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.is_set():
            self.tick()
            self._stop.wait(self.config.tick_interval_s)

    def stop(self) -> None:
        """Stop and join the tick thread (idempotent)."""
        self._stop.set()
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout=30.0)

    def __enter__(self) -> "ControlPlane":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #
    @property
    def stats(self) -> ControlStats:
        prober = self.prober
        return ControlStats(
            ticks=self._ticks,
            probes=prober.probes,
            backoffs=prober.backoffs,
            readmissions=prober.readmissions,
            decommissions=prober.decommissions,
            reregistrations=prober.reregistrations)

    def __repr__(self) -> str:
        state = "running" if self.running else "idle"
        return f"ControlPlane(prober, {state})"
