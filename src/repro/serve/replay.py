"""Deterministic trace replay: scripted production storms on a fleet.

The ROADMAP's open question after PR 5/7 was never "does one fault heal"
— the chaos suite pins that — but "does the *system* survive realistic
failure weather": heavy-tailed arrivals, zipfian hot keys, diurnal load
swings, multi-tenant priority mixes, and faults that land *together*
(a kill during a hang during a flap).  This module makes such weather a
reproducible artifact, the same discipline DNN-MG-style time-stepping
applies to numerics — identical seed + scenario ⇒ identical timeline:

* :class:`Scenario` — a JSON-loadable script: arrival process
  (lognormal or exponential inter-arrivals, optional diurnal rate
  envelope), model popularity (zipfian or uniform), tenant mix
  (weights, priorities, deadlines — the tenant name is a label in the
  event log; the fleet sees only priority and deadline) and a
  coordinated fault schedule
  ("kill shard 2 at t=3s", "hang shard 0 for 2s at t=5s", "flap
  shard 1").
* :func:`build_trace` — expands a scenario into a flat, timestamped
  event list using **one** ``numpy`` Generator seeded by the scenario:
  the trace is a pure function of (scenario, seed), so
  :func:`event_log` — the jsonl rendering — is byte-identical across
  runs, machines and processes.  That is the replay contract the bench
  gates: same seed twice ⇒ ``event_log`` strings compare equal.
* :class:`ReplayHarness` — executes a trace against a live
  :class:`~repro.serve.fleet.ShardedFleet`: requests are paced to
  their timestamps (``time_scale`` stretches or crushes the clock),
  fault events drive per-shard chaos hooks (kill = submit raises,
  hang = forward blocks until released), and the drain phase awaits
  every request once, through the fleet's hang failover.  The report
  carries the outcome census, the fleet stats (``lost == 0`` is the
  acceptance gate), and the event log that produced them.
* :class:`VirtualClock` — a forgeable now() for the deterministic unit
  tests of the policies themselves (the trace generator needs no clock
  at all: its timeline is data).

Quickstart::

    scenario = load_scenario("benchmarks/scenarios/storm.json")
    fleet = ShardedFleet(FleetConfig(shards=4, shard_timeout_s=0.75))
    ...register scenario.models...
    with fleet:
        report = ReplayHarness(fleet, scenario).run()
    assert report.lost == 0
"""

from __future__ import annotations

import json
import math
import threading
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import FleetUnavailable, ServerOverloaded

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .fleet import Shard, ShardedFleet

__all__ = [
    "ArrivalSpec", "PopularitySpec", "TenantSpec", "FaultSpec", "Scenario",
    "TraceEvent", "VirtualClock", "ShardChaos", "ReplayHarness",
    "ReplayReport", "build_trace", "event_log", "load_scenario",
]

_FAULT_OPS = ("kill", "hang", "flap")


# --------------------------------------------------------------------- #
# Scenario script
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class ArrivalSpec:
    """Inter-arrival process + optional diurnal rate envelope."""

    process: str = "lognormal"     # "lognormal" (heavy tail) | "exponential"
    rate: float = 50.0             # mean requests per second
    sigma: float = 0.8             # lognormal shape (tail heaviness)
    diurnal_period_s: float = 0.0  # 0 disables the envelope
    diurnal_amplitude: float = 0.0  # peak rate swing, in [0, 1)

    def __post_init__(self) -> None:
        if self.process not in ("lognormal", "exponential"):
            raise ValueError(f"unknown arrival process {self.process!r}")
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ValueError("diurnal_amplitude must be in [0, 1)")
        if self.diurnal_amplitude > 0.0 and self.diurnal_period_s <= 0.0:
            raise ValueError("diurnal_period_s must be positive when "
                             "diurnal_amplitude > 0")


@dataclass(frozen=True)
class PopularitySpec:
    """Which model a request asks for (hot-key skew)."""

    kind: str = "zipf"             # "zipf" | "uniform"
    s: float = 1.1                 # zipf exponent (weight of rank k: k^-s)

    def __post_init__(self) -> None:
        if self.kind not in ("zipf", "uniform"):
            raise ValueError(f"unknown popularity kind {self.kind!r}")
        if self.kind == "zipf" and self.s <= 0:
            raise ValueError("zipf exponent s must be positive")


@dataclass(frozen=True)
class TenantSpec:
    """One traffic class: share of requests, priority, deadline."""

    name: str
    weight: float = 1.0
    priority: int = 0
    deadline_s: float | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        if self.weight <= 0:
            raise ValueError("tenant weight must be positive")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive when set")


@dataclass(frozen=True)
class FaultSpec:
    """One scripted fault: kill / hang / flap a shard at time ``t``."""

    t: float
    op: str                        # "kill" | "hang" | "flap"
    shard: int
    duration_s: float | None = None  # kill: restore after; hang: release
    period_s: float = 1.0          # flap: one down/up cycle length
    count: int = 1                 # flap: number of cycles

    def __post_init__(self) -> None:
        if self.t < 0:
            raise ValueError("fault t must be >= 0")
        if self.op not in _FAULT_OPS:
            raise ValueError(f"unknown fault op {self.op!r} "
                             f"(expected one of {_FAULT_OPS})")
        if self.shard < 0:
            raise ValueError("fault shard index must be >= 0")
        if self.duration_s is not None and self.duration_s <= 0:
            raise ValueError("duration_s must be positive when set")
        if self.op == "flap" and (self.period_s <= 0 or self.count < 1):
            raise ValueError("flap needs period_s > 0 and count >= 1")


@dataclass(frozen=True)
class Scenario:
    """A full replay script — the unit the JSON files serialize."""

    name: str
    seed: int
    duration_s: float
    models: tuple[str, ...]
    arrivals: ArrivalSpec = field(default_factory=ArrivalSpec)
    popularity: PopularitySpec = field(default_factory=PopularitySpec)
    tenants: tuple[TenantSpec, ...] = (TenantSpec("default"),)
    faults: tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario name must be non-empty")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if not self.models:
            raise ValueError("scenario needs at least one model")
        if not self.tenants:
            raise ValueError("scenario needs at least one tenant")

    @classmethod
    def from_dict(cls, raw: dict) -> "Scenario":
        """Build + validate a scenario from parsed JSON."""
        if not isinstance(raw, dict):
            raise ValueError("scenario document must be a JSON object")
        known = {"name", "seed", "duration_s", "models", "arrivals",
                 "popularity", "tenants", "faults"}
        extra = set(raw) - known
        if extra:
            raise ValueError(f"unknown scenario fields: {sorted(extra)}")
        for key in ("name", "seed", "duration_s", "models"):
            if key not in raw:
                raise ValueError(f"scenario is missing required {key!r}")
        return cls(
            name=str(raw["name"]),
            seed=int(raw["seed"]),
            duration_s=float(raw["duration_s"]),
            models=tuple(str(m) for m in raw["models"]),
            arrivals=ArrivalSpec(**raw.get("arrivals", {})),
            popularity=PopularitySpec(**raw.get("popularity", {})),
            tenants=tuple(TenantSpec(**t) for t in raw.get(
                "tenants", [{"name": "default"}])),
            faults=tuple(FaultSpec(**f) for f in raw.get("faults", [])),
        )


def load_scenario(path: str | Path) -> Scenario:
    """Parse + validate one scenario JSON file."""
    text = Path(path).read_text()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"scenario file {path} is not valid JSON: "
                         f"{exc}") from exc
    return Scenario.from_dict(raw)


# --------------------------------------------------------------------- #
# Trace expansion: scenario -> flat deterministic event list
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class TraceEvent:
    """One timestamped replay event (request or fault edge)."""

    t: float
    seq: int
    kind: str                      # request | kill | restore | hang | release
    model: str | None = None
    tenant: str | None = None
    priority: int | None = None
    deadline_s: float | None = None
    omega: tuple[float, ...] | None = None
    shard: int | None = None

    def to_dict(self) -> dict:
        d = {"t": self.t, "seq": self.seq, "kind": self.kind}
        for key in ("model", "tenant", "priority", "deadline_s", "shard"):
            value = getattr(self, key)
            if value is not None:
                d[key] = value
        if self.omega is not None:
            d["omega"] = list(self.omega)
        return d


def _popularity_weights(scenario: Scenario) -> np.ndarray:
    n = len(scenario.models)
    if scenario.popularity.kind == "zipf":
        w = np.array([1.0 / k ** scenario.popularity.s
                      for k in range(1, n + 1)])
    else:
        w = np.ones(n)
    return np.cumsum(w / w.sum())


def build_trace(scenario: Scenario, omega_dim: int = 4,
                omega_range: tuple[float, float] = (-3.0, 3.0)
                ) -> list[TraceEvent]:
    """Expand a scenario into its timestamped event list.

    A pure function of ``(scenario, omega_dim, omega_range)``: every
    random draw — inter-arrival, model pick, tenant pick, ω — comes
    from one ``np.random.default_rng(scenario.seed)`` in a fixed order,
    so two calls produce identical events and :func:`event_log` renders
    them to byte-identical jsonl.  Timestamps are rounded to
    nanoseconds so the log stays tidy and the executed trace matches
    the logged one exactly.
    """
    rng = np.random.default_rng(scenario.seed)
    arrivals = scenario.arrivals
    cum_models = _popularity_weights(scenario)
    tenant_w = np.array([t.weight for t in scenario.tenants])
    cum_tenants = np.cumsum(tenant_w / tenant_w.sum())
    if arrivals.process == "lognormal":
        # mu chosen so the lognormal's *mean* inter-arrival is 1/rate:
        # E[X] = exp(mu + sigma^2/2).
        mu = math.log(1.0 / arrivals.rate) - 0.5 * arrivals.sigma ** 2
    events: list[TraceEvent] = []
    t = 0.0
    while True:
        if arrivals.process == "lognormal":
            dt = float(rng.lognormal(mu, arrivals.sigma))
        else:
            dt = float(rng.exponential(1.0 / arrivals.rate))
        if arrivals.diurnal_amplitude > 0.0:
            # A rate envelope compresses inter-arrivals at the peak and
            # stretches them in the trough; the floor keeps a deep
            # trough from freezing the timeline.
            envelope = 1.0 + arrivals.diurnal_amplitude * math.sin(
                2.0 * math.pi * t / arrivals.diurnal_period_s)
            dt /= max(0.1, envelope)
        t += dt
        if t >= scenario.duration_s:
            break
        model = scenario.models[
            int(np.searchsorted(cum_models, rng.random(), side="right"))]
        tenant = scenario.tenants[
            int(np.searchsorted(cum_tenants, rng.random(), side="right"))]
        omega = rng.uniform(omega_range[0], omega_range[1], size=omega_dim)
        events.append(TraceEvent(
            t=round(t, 9), seq=0, kind="request", model=model,
            tenant=tenant.name, priority=tenant.priority,
            deadline_s=tenant.deadline_s,
            omega=tuple(round(float(x), 9) for x in omega)))
    for fault in scenario.faults:
        if fault.op == "kill":
            events.append(TraceEvent(t=round(fault.t, 9), seq=0,
                                     kind="kill", shard=fault.shard))
            if fault.duration_s is not None:
                events.append(TraceEvent(
                    t=round(fault.t + fault.duration_s, 9), seq=0,
                    kind="restore", shard=fault.shard))
        elif fault.op == "hang":
            duration = fault.duration_s or 1.0
            events.append(TraceEvent(t=round(fault.t, 9), seq=0,
                                     kind="hang", shard=fault.shard))
            events.append(TraceEvent(t=round(fault.t + duration, 9), seq=0,
                                     kind="release", shard=fault.shard))
        else:   # flap: count down/up cycles of period_s
            for i in range(fault.count):
                down = fault.t + i * fault.period_s
                events.append(TraceEvent(t=round(down, 9), seq=0,
                                         kind="kill", shard=fault.shard))
                events.append(TraceEvent(
                    t=round(down + fault.period_s / 2.0, 9), seq=0,
                    kind="restore", shard=fault.shard))
    # Stable sort on time: same-timestamp events keep their expansion
    # order (requests first, then faults in schedule order), which is
    # itself deterministic — the total order is reproducible.
    events.sort(key=lambda ev: ev.t)
    return [replace(ev, seq=i) for i, ev in enumerate(events)]


def event_log(events: list[TraceEvent]) -> str:
    """Render a trace as jsonl — the byte-identical replay artifact."""
    return "".join(json.dumps(ev.to_dict(), sort_keys=True) + "\n"
                   for ev in events)


# --------------------------------------------------------------------- #
# Forgeable clock (deterministic unit tests of time-based policies)
# --------------------------------------------------------------------- #
class VirtualClock:
    """A now() that moves only when told to.

    Inject it as the ``clock`` of anything with deterministic tick
    semantics (the replay harness, the tracer) and drive time from the
    test: ``clock.advance(0.5)``.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def __call__(self) -> float:
        return self._now

    @property
    def now(self) -> float:
        return self._now

    def advance(self, dt: float) -> float:
        if dt < 0:
            raise ValueError("time does not flow backwards")
        self._now += dt
        return self._now

    def sleep(self, dt: float) -> None:
        """Clock-compatible stand-in for ``time.sleep``."""
        self.advance(dt)


# --------------------------------------------------------------------- #
# Per-shard chaos hooks (the scripted faults' actuators)
# --------------------------------------------------------------------- #
class ShardChaos:
    """Reversible fault injection on one shard's server.

    ``kill`` makes ``submit`` raise (the fleet sees a shard fault and
    fails over); ``hang`` gates ``_forward`` on an event (requests stall
    until ``release`` — or until the fleet's hang budget ejects the
    shard); ``restore`` undoes everything.  The same mechanics as the
    single-fault chaos suite, packaged for scenario scripts.

    Re-entrant faults are safe: a second ``hang`` before the first is
    released swaps in a fresh gate but *sets the superseded one first*,
    so waiters parked on the old event are handed to the new gate's
    lifecycle instead of being orphaned forever — ``release``/
    ``restore`` then genuinely un-hangs the shard, which is what lets
    the harness's ``finally`` clean up a trace aborted mid-hang.
    """

    def __init__(self, shard: "Shard",
                 clock: "VirtualClock | None" = None) -> None:
        self.shard = shard
        self.clock = clock
        self._submit = shard.server.submit
        self._forward = shard.server._forward
        self._release = threading.Event()
        self._release.set()

    def kill(self) -> None:
        def dead(*args, **kwargs):
            raise ConnectionError(
                f"{self.shard.id} is down (scripted kill)")
        self.shard.server.submit = dead

    def hang(self, until: float | None = None) -> None:
        # Swap the gate first, then open the superseded one: any thread
        # still parked on the previous event wakes and proceeds (that
        # hang is over), while new work blocks on the fresh gate.  The
        # old buggy shape — dropping the previous Event unreleased —
        # left prior waiters blocked on an object no longer reachable
        # through release()/restore(): a leaked hung shard.
        prev = self._release
        release = self._release = threading.Event()
        prev.set()
        forward = self._forward
        clock = self.clock

        def stalled(*args, **kwargs):
            if clock is not None and until is not None:
                # Virtual time: a hang becomes "the forward takes until
                # the scripted release".  Blocking would deadlock the
                # single pacing thread — the release event that frees a
                # real hang is dispatched by the very thread parked
                # here — so advance the clock to the release target and
                # proceed instead.
                if not release.is_set():
                    release.set()
                    now = clock()
                    if until > now:
                        clock.advance(until - now)
            else:
                release.wait()
            return forward(*args, **kwargs)

        self.shard.server._forward = stalled

    def release(self) -> None:
        self._release.set()
        self.shard.server._forward = self._forward

    def restore(self) -> None:
        self.shard.server.submit = self._submit
        self.release()


# --------------------------------------------------------------------- #
# Harness: execute a trace against a live fleet
# --------------------------------------------------------------------- #
@dataclass
class ReplayReport:
    """What one replay run produced."""

    scenario: str
    seed: int
    events: int                    # trace events executed
    requests: int                  # request events among them
    outcomes: dict                 # final verdict census per request
    wall_s: float
    stats: object                  # FleetStats snapshot at the end
    log: str                       # the jsonl event log that was replayed
    spans: list = field(default_factory=list)  # exported span dicts
    #                                (telemetry-enabled runs; else empty)

    @property
    def lost(self) -> int:
        return self.stats.lost

    @property
    def served(self) -> int:
        return self.outcomes.get("served", 0)

    def span_log(self) -> str:
        """Span jsonl — the golden-trace artifact (empty string when
        the run carried no telemetry bundle)."""
        from .telemetry import export_jsonl
        return export_jsonl(self.spans)


class ReplayHarness:
    """Pace a scenario's trace against a fleet and account every request.

    ``time_scale`` multiplies every timestamp (0.25 replays a scenario
    at 4x speed); the trace itself is untouched, so the *log* stays
    byte-identical across speeds.  Requests go through
    ``fleet.submit`` once each, and each outcome is the verdict the
    fleet delivered: failover is the only healing.  Fault events drive
    :class:`ShardChaos` hooks on the fleet's shards by index.  Every
    hook is restored before the drain, whatever happens mid-run.

    With ``clock`` (a :class:`VirtualClock`) the pacing loop advances
    the clock instead of sleeping — combined with an *unstarted* fleet
    (submits process inline on the pacing thread) the whole replay is
    single-threaded and deterministic; scripted hangs become "the
    forward takes until the scripted release" in virtual time.  With
    ``telemetry`` the bundle is threaded through the fleet (if not
    already) and the report carries the exported spans —
    ``report.span_log()`` is the golden-trace artifact.
    """

    def __init__(self, fleet: "ShardedFleet", scenario: Scenario, *,
                 time_scale: float = 1.0,
                 request_timeout_s: float = 30.0,
                 omega_dim: int | None = None,
                 clock: VirtualClock | None = None,
                 telemetry=None) -> None:
        if time_scale <= 0:
            raise ValueError("time_scale must be positive")
        self.fleet = fleet
        self.scenario = scenario
        self.time_scale = time_scale
        self.request_timeout_s = request_timeout_s
        self.clock = clock
        self.telemetry = telemetry
        if telemetry is not None and getattr(fleet, "telemetry",
                                             None) is None:
            fleet.enable_telemetry(telemetry)
        registered = set(fleet.names())
        missing = [m for m in scenario.models if m not in registered]
        if missing:
            raise ValueError(
                f"scenario models not registered in the fleet: {missing}")
        if omega_dim is None:
            omega_dim = int(fleet.get(scenario.models[0]).problem.field.m)
        self.trace = build_trace(scenario, omega_dim=omega_dim)

    def _now(self) -> float:
        return self.clock() if self.clock is not None else time.monotonic()

    def _sleep(self, dt: float) -> None:
        if self.clock is not None:
            self.clock.sleep(dt)
        else:
            time.sleep(dt)

    def run(self) -> ReplayReport:
        fleet = self.fleet
        with fleet._lock:
            shards = list(fleet.shards)
        chaos = {i: ShardChaos(shard, clock=self.clock)
                 for i, shard in enumerate(shards)}
        # Virtual pacing cannot block on a hang (single thread), so the
        # release target of every scripted hang is precomputed from the
        # trace and handed to the hook: the stalled forward advances
        # the clock to it instead of waiting.
        releases: dict[int, list[float]] = {}
        if self.clock is not None:
            for ev in self.trace:
                if ev.kind == "release":
                    releases.setdefault(ev.shard % len(chaos),
                                        []).append(ev.t)
        records: list[tuple[object, BaseException | None]] = []
        start = self._now()
        try:
            for ev in self.trace:
                target = start + ev.t * self.time_scale
                delay = target - self._now()
                if delay > 0:
                    self._sleep(delay)
                if ev.kind == "request":
                    records.append(self._submit(ev))
                    continue
                hook = chaos[ev.shard % len(chaos)]
                if ev.kind == "kill":
                    hook.kill()
                elif ev.kind == "restore":
                    hook.restore()
                elif ev.kind == "hang":
                    until = None
                    if self.clock is not None:
                        pending = releases.get(ev.shard % len(chaos), [])
                        while pending and pending[0] < ev.t:
                            pending.pop(0)
                        if pending:
                            until = (start
                                     + pending.pop(0) * self.time_scale)
                    hook.hang(until=until)
                elif ev.kind == "release":
                    hook.release()
        finally:
            for hook in chaos.values():
                hook.restore()
        outcomes: Counter = Counter()
        for future, refused in records:
            outcomes[self._drain(future, refused)] += 1
        wall = self._now() - start
        spans = ([span.to_dict()
                  for span in self.telemetry.tracer.spans()]
                 if self.telemetry is not None else [])
        return ReplayReport(
            scenario=self.scenario.name, seed=self.scenario.seed,
            events=len(self.trace), requests=len(records),
            outcomes=dict(outcomes), wall_s=wall, stats=fleet.stats,
            log=event_log(self.trace), spans=spans)

    def _submit(self, ev: TraceEvent):
        """One paced submit; a transient sync verdict is recorded as the
        request's outcome instead of aborting the run."""
        try:
            future = self.fleet.submit(
                ev.model, np.asarray(ev.omega), priority=ev.priority,
                deadline_s=ev.deadline_s)
            return future, None
        except (FleetUnavailable, ServerOverloaded) as exc:
            return None, exc

    def _drain(self, future, refused) -> str:
        """Final verdict of one request: "served", or the class name of
        the exception that refused or failed it."""
        if refused is not None:
            return type(refused).__name__
        try:
            self.fleet.await_result(future, self.request_timeout_s)
        except Exception as raised:
            return type(raised).__name__
        return "served"
