"""The control plane: one facade wiring healing, spreading, quotas and
elasticity onto a live fleet.

PR 5's fleet is mechanism: it *can* eject, probe, re-admit, rebalance —
if someone calls the right method at the right time.  This module is
the policy loop that does the calling, structured the way the priority
-aging scheduler was: a **deterministic core** (``tick(now)`` — pure
function of the injected clock and the fleet's state, unit-testable
with forged clocks) and an **optional real-time shell** (``start()``
spawns a daemon thread that ticks every ``tick_interval_s``;
``stop()`` joins it).  Chaos tests run the thread for realism; unit
tests call ``tick`` directly and never sleep.

Installation is explicit and reversible: constructing a
:class:`ControlPlane` installs the p2c balancer and the admission
controller onto the fleet's seams (``fleet.balancer`` /
``fleet.admission``); ``uninstall()`` puts the ``None``s back.  The
prober and autoscaler hold no fleet state at all — they only call
public fleet primitives (``probe_shard`` / ``decommission_shard`` /
``add_shard`` / ``retire_shard``), each of which preserves the request
conservation law on its own, so the composed loop does too.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from .admission import AdmissionController, TenantQuota
from .autoscale import Autoscaler
from .balance import PowerOfTwoBalancer
from .prober import HealthProber

if TYPE_CHECKING:
    from ..fleet import ShardedFleet

__all__ = ["ControlConfig", "ControlStats", "ControlPlane"]


@dataclass(frozen=True)
class ControlConfig:
    """Tunables of one :class:`ControlPlane`."""

    # Self-healing (prober).
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
    # Load spreading (power-of-two-choices).
    balance: bool = True
    balance_seed: int = 0
    # Admission control: None leaves tenants unmetered.
    tenant_rate: float | None = None
    tenant_burst: float | None = None   # default: 2 * rate
    # Elasticity.
    autoscale: bool = False
    autoscale_min: int = 1
    autoscale_max: int = 8
    scale_up_depth: float = 8.0
    scale_down_depth: float = 0.5
    up_streak: int = 2
    down_streak: int = 3
    drain_timeout_s: float = 10.0
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
    scale_ups: int = 0
    scale_downs: int = 0
    balance_decisions: int = 0
    balance_diversions: int = 0
    admitted: int = 0
    throttled: int = 0
    tenants: dict = field(default_factory=dict)
    last_depth: float = 0.0


class ControlPlane:
    """Policy loop over one :class:`~repro.serve.fleet.ShardedFleet`.

    Usage (deterministic)::

        plane = ControlPlane(fleet, ControlConfig(permanent_after=4),
                             clock=forged.now)
        plane.tick(now=t)                  # one loop body, no threads

    Usage (real time)::

        with fleet, ControlPlane(fleet, cfg) as plane:
            ... serve traffic; the plane heals/spreads/scales behind ...
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
        self.balancer = (PowerOfTwoBalancer(seed=cfg.balance_seed)
                         if cfg.balance else None)
        self.admission = None
        if cfg.tenant_rate is not None:
            burst = (cfg.tenant_burst if cfg.tenant_burst is not None
                     else 2.0 * cfg.tenant_rate)
            self.admission = AdmissionController(
                TenantQuota(rate=cfg.tenant_rate, burst=burst),
                clock=clock)
        self.autoscaler = None
        if cfg.autoscale:
            self.autoscaler = Autoscaler(
                fleet,
                min_shards=cfg.autoscale_min,
                max_shards=cfg.autoscale_max,
                scale_up_depth=cfg.scale_up_depth,
                scale_down_depth=cfg.scale_down_depth,
                up_streak=cfg.up_streak,
                down_streak=cfg.down_streak,
                drain_timeout_s=cfg.drain_timeout_s,
                clock=clock)
        # Install the per-request policies onto the fleet's seams.
        fleet.balancer = self.balancer if self.balancer else fleet.balancer
        fleet.admission = self.admission if self.admission else fleet.admission

    # ------------------------------------------------------------------ #
    # Deterministic core
    # ------------------------------------------------------------------ #
    def tick(self, now: float | None = None) -> None:
        """One control-loop body: heal, then (maybe) scale."""
        now = self._clock() if now is None else now
        self._ticks += 1
        self.prober.tick(now)
        if self.autoscaler is not None:
            self.autoscaler.tick(now)
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
            for name in ("ticks", "probes", "backoffs", "readmissions",
                         "decommissions", "reregistrations", "scale_ups",
                         "scale_downs", "balance_decisions",
                         "balance_diversions", "admitted", "throttled"):
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

    def uninstall(self) -> None:
        """Remove the per-request policies from the fleet's seams."""
        if self.fleet.balancer is self.balancer:
            self.fleet.balancer = None
        if self.fleet.admission is self.admission:
            self.fleet.admission = None

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
        out = ControlStats(
            ticks=self._ticks,
            probes=self.prober.probes,
            backoffs=self.prober.backoffs,
            readmissions=self.prober.readmissions,
            decommissions=self.prober.decommissions,
            reregistrations=self.prober.reregistrations)
        if self.autoscaler is not None:
            out.scale_ups = self.autoscaler.scale_ups
            out.scale_downs = self.autoscaler.scale_downs
            out.last_depth = self.autoscaler.last_depth
        if self.balancer is not None:
            out.balance_decisions = self.balancer.decisions
            out.balance_diversions = self.balancer.diversions
        if self.admission is not None:
            out.admitted = self.admission.admitted
            out.throttled = self.admission.throttled
            out.tenants = self.admission.snapshot()
        return out

    def __repr__(self) -> str:
        parts = ["prober"]
        if self.balancer is not None:
            parts.append("p2c")
        if self.admission is not None:
            parts.append("admission")
        if self.autoscaler is not None:
            parts.append("autoscale")
        state = "running" if self.running else "idle"
        return f"ControlPlane({'+'.join(parts)}, {state})"
