"""Deterministic simulation of the sharded fleet.

A hypothesis state machine drives an *unstarted* fleet, whose submits
run inline on the test thread, through the interleavings of its fault
paths.  Each shard keeps its real server behind a test-double
front-end (:class:`_Front`) that *answers* (through the unstarted
server: a real inline forward), *raises* (a killed host) or *holds* a
pending future (a hung host).  A later rule releases a held future as
a late answer or a late error.  The other rules cancel a caller's
future, expire hung attempts (``ShardedFleet.expire_hung`` with an
explicit ``now``, what a started fleet's watchdog calls), probe
(``check_health``, only while no shard holds a pending attempt: a real
probe blocks on the shard's own future) and decommission a shard.

After every step:

* **Conservation** — ``submitted`` equals the outcome terms plus the
  requests still in flight; the ledger and both registry views agree
  term by term; ``lost == 0`` once a final release-all has landed.
* **Exactly once** — every fleet future resolves once, no done-callback
  raises, a served field is its own ω's field, and a request never has
  two live attempts: a new one only after a fault or an expiry.
  ``expire_hung(now)`` fails over exactly the attempts dispatched
  ``shard_timeout_s`` before ``now``, never the ones it re-dispatched.
* **The two health rules** — an answer dispatched before an *error*
  ejection never re-admits its shard; any late answer refutes a *hang*
  ejection.  A decommissioned shard never comes back.
* **Well-formed span trees** — unique ordered ids, no orphans, every
  child opened inside its parent and closed inside it (all but a fleet
  attempt the watchdog moved on from), and root outcomes that are the
  conservation terms, counted like the ledger.

A fixed seeded program, run twice, exports byte-identical span jsonl,
pinned by ``PROGRAM_DIGEST``: every timestamp comes from
:class:`VirtualClock`, never from the wall clock.
"""

from __future__ import annotations

import functools
import hashlib
import logging
import random
import time
from collections import Counter
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine, initialize, invariant, precondition, rule,
)

from repro import MGDiffNet, PoissonProblem2D
from repro.core.inference import predict_batch
from repro.serve import (
    FleetConfig, FleetUnavailable, ServerConfig, ShardedFleet, Telemetry,
)

CONSERVED = ("served", "rejected", "expired", "errors", "cancelled",
             "unavailable")
SHARDS = 4
MODELS = ("m0", "m1")
# The hang budget.  Far above the wall time of a whole example, so only
# an ``expire_hung`` call that the program makes expires anything.
BUDGET = 100.0
PROBLEM = PoissonProblem2D(8)
MODEL = MGDiffNet(ndim=2, base_filters=2, depth=1, rng=1)
PICK = st.integers(0, 10 ** 6)      # an index, taken modulo the choices
MODE = st.sampled_from(("answer", "raise", "hold"))

# sha256 of the fixed program's span jsonl (``run_program``).
PROGRAM_SEED = 28
PROGRAM_DIGEST = (
    "07e95ab7dda8d03e8b7260714336a9800e1d48cb0a9659a18e4eb4f17efea528")


class VirtualClock:
    """A now() that moves only when told to.

    The tracer's clock in the simulation: every span timestamp is then
    a pure function of the program driven, never of the wall clock.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def __call__(self) -> float:
        return self._now

    def advance(self, dt: float) -> float:
        if dt < 0:
            raise ValueError("time does not flow backwards")
        self._now += dt
        return self._now


def _omega(rid: int) -> np.ndarray:
    """Request ``rid``'s ω: the id rides in the first coefficient."""
    return np.array([rid * 1e-3, 0.5, -0.5, 0.25])


def _rid(omega) -> int:
    return int(round(float(omega[0]) * 1e3))


@functools.lru_cache(maxsize=None)
def _reference(rid: int) -> np.ndarray:
    return predict_batch(MODEL, PROBLEM, _omega(rid))[0]


class _Attempt:
    """One dispatch a holding front received: its request, its place in
    the program's event order, its dispatch time on the fleet's clock,
    and the pending future the front handed back."""

    __slots__ = ("rid", "front", "seq", "stamp", "future")

    def __init__(self, rid: int, front: "_Front", seq: int) -> None:
        self.rid = rid
        self.front = front
        self.seq = seq
        self.stamp = time.monotonic()
        self.future: Future = Future()


class _Front:
    """Test-double front-end of one shard: ``answer`` through the real
    (unstarted) server, ``raise`` like a killed host, or ``hold`` a
    pending future like a hung one."""

    def __init__(self, sim: "FleetSim", shard) -> None:
        self.sim = sim
        self.shard = shard
        self.mode = "answer"
        self.retired = False
        self.server_submit = shard.server.submit
        shard.server.submit = self.submit
        shard.server.predict = self.predict

    def submit(self, model_name, omega, resolution=None, *, priority=None,
               deadline_s=None, trace_parent=None) -> Future:
        return self.sim.dispatched(
            self, model_name, omega, resolution, priority=priority,
            deadline_s=deadline_s, trace_parent=trace_parent)

    def predict(self, model_name, omega, resolution=None, timeout=None, *,
                priority=None, deadline_s=None):
        """``check_health``'s probe: only an answering front passes."""
        if self.mode != "answer":
            raise ConnectionError(f"{self.shard.id} does not answer")
        return self.server_submit(model_name, omega, resolution,
                                  priority=priority).result(timeout)


class _Raised(logging.Handler):
    """Collects what ``concurrent.futures`` logs: a done-callback that
    raised (a fleet future resolved twice, say)."""

    def __init__(self) -> None:
        super().__init__(logging.ERROR)
        self.messages: list[str] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.messages.append(record.getMessage())


class FleetSim(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.clock = VirtualClock()
        self.telemetry = Telemetry(clock=self.clock)
        self.fleet = ShardedFleet(FleetConfig(
            shards=SHARDS, replicas=2, shard_timeout_s=BUDGET,
            server=ServerConfig(max_batch=1, max_wait_ms=0.0, workers=1,
                                cache_bytes=0)))
        for name in MODELS:
            self.fleet.register_model(name, MODEL, PROBLEM)
        self.fleet.enable_telemetry(self.telemetry)
        self.fronts = [_Front(self, shard) for shard in self.fleet.shards]
        self.seq = 0                       # program event order
        self.futures: dict[int, Future] = {}
        self.deliveries: Counter = Counter()
        self.checked: set[int] = set()
        self.live: dict[int, _Attempt] = {}    # request -> held attempt
        self.held: list[_Attempt] = []         # every held attempt
        self.err_seq: dict[str, int] = {}      # shard -> error ejection
        self.violations: list[str] = []
        self.raised = _Raised()
        logging.getLogger("concurrent.futures").addHandler(self.raised)

    # ------------------------------------------------------------------ #
    # The fronts' side
    # ------------------------------------------------------------------ #
    def dispatched(self, front: _Front, model_name, omega, resolution,
                   **kwargs) -> Future:
        """One attempt reaches ``front``: check it may exist, act out
        the front's mode, and keep the health model in step."""
        self.seq += 1
        rid, shard = _rid(omega), front.shard
        self.refresh()
        if rid in self.live:
            self.violations.append(
                f"request {rid} dispatched to {shard.id} while its attempt "
                f"on {self.live[rid].front.shard.id} is live")
        if front.mode == "raise":
            if shard.healthy:
                self.err_seq[shard.id] = self.seq   # an error ejection
            raise ConnectionError(f"{shard.id} is down")
        if front.mode == "answer":
            inner = front.server_submit(model_name, omega, resolution,
                                        **kwargs)
            if inner.exception() is None:
                self.err_seq.pop(shard.id, None)    # re-admitted on it
            return inner
        attempt = _Attempt(rid, front, self.seq)
        self.live[rid] = attempt
        self.held.append(attempt)
        return attempt.future

    def refresh(self) -> None:
        """A shard seen healthy carries no ejection."""
        for front in self.fronts:
            if front.shard.healthy:
                self.err_seq.pop(front.shard.id, None)

    def pending(self) -> list[_Attempt]:
        return [a for a in self.held if not a.future.done()]

    def stragglers(self) -> list[_Attempt]:
        """Pending attempts the watchdog has moved on from."""
        return [a for a in self.pending() if self.live.get(a.rid) is not a]

    def live_fronts(self) -> list[_Front]:
        return [f for f in self.fronts if not f.retired]

    def release(self, attempt: _Attempt, answer: bool) -> None:
        """Resolve a held attempt late, checking the health rules.  An
        answer delivers its request even when the watchdog moved on from
        it (whichever answer lands first wins); an error fails over only
        from the live attempt."""
        self.seq += 1
        shard = attempt.front.shard
        if answer or self.live.get(attempt.rid) is attempt:
            self.live.pop(attempt.rid, None)
        if not answer:
            if shard.healthy:
                self.err_seq[shard.id] = self.seq
            attempt.future.set_exception(
                RuntimeError(f"{shard.id} failed late"))
            return
        down = not shard.healthy and not attempt.front.retired
        ejected = self.err_seq.get(shard.id)
        attempt.future.set_result(_reference(attempt.rid))
        if down and ejected is not None and ejected > attempt.seq:
            assert not shard.healthy, (
                f"{shard.id} re-admitted on an answer dispatched before "
                f"its error ejection")
        elif down:
            assert shard.healthy, (
                f"{shard.id}'s late answer did not refute its hang ejection")

    # ------------------------------------------------------------------ #
    # Rules
    # ------------------------------------------------------------------ #
    @initialize(modes=st.lists(MODE, min_size=SHARDS, max_size=SHARDS))
    def start_in(self, modes: list[str]) -> None:
        for front, mode in zip(self.fronts, modes):
            front.mode = mode

    @rule(model=st.sampled_from(MODELS))
    def submit(self, model: str) -> None:
        self.clock.advance(0.001)
        rid = len(self.futures)
        try:
            future = self.fleet.submit(model, _omega(rid))
        except FleetUnavailable:
            self.futures[rid] = None        # refused: no future to hold
            return
        self.futures[rid] = future
        future.add_done_callback(
            lambda f, r=rid: self.deliveries.update([r]))

    @rule(pick=PICK, mode=MODE)
    def set_mode(self, pick: int, mode: str) -> None:
        fronts = self.live_fronts()
        fronts[pick % len(fronts)].mode = mode

    @precondition(lambda self: self.live)
    @rule(pick=PICK, answer=st.booleans())
    def release_live(self, pick: int, answer: bool) -> None:
        self.clock.advance(0.001)
        live = sorted(self.live.values(), key=lambda a: a.seq)
        self.release(live[pick % len(live)], answer)
        self.refresh()

    @precondition(lambda self: self.stragglers())
    @rule(pick=PICK, answer=st.booleans())
    def release_straggler(self, pick: int, answer: bool) -> None:
        self.clock.advance(0.001)
        stragglers = self.stragglers()
        self.release(stragglers[pick % len(stragglers)], answer)
        self.refresh()

    @precondition(lambda self: any(
        f is not None and not f.done() for f in self.futures.values()))
    @rule(pick=PICK)
    def cancel(self, pick: int) -> None:
        undone = [f for f in self.futures.values()
                  if f is not None and not f.done()]
        assert undone[pick % len(undone)].cancel()

    @precondition(lambda self: self.live)
    @rule(pick=PICK, due=st.booleans())
    def expire_hung(self, pick: int, due: bool) -> None:
        """Expire at a chosen live attempt's deadline (every attempt
        dispatched up to it is due), or halfway to it (none is)."""
        self.clock.advance(BUDGET)
        live = sorted(self.live.values(), key=lambda a: a.seq)
        target = live[pick % len(live)]
        if due:
            now = target.stamp + BUDGET
            expiring = [a for a in live if a.seq <= target.seq]
        else:
            now = target.stamp + BUDGET / 2
            expiring = []
        for attempt in expiring:
            del self.live[attempt.rid]
        assert self.fleet.expire_hung(now) == len(expiring)
        roots = self.roots()
        for attempt in expiring:
            # Failed over: a new attempt holds it, or it has a verdict.
            assert (attempt.rid in self.live
                    or roots[attempt.rid].end is not None), attempt.rid
        self.refresh()

    @precondition(lambda self: not self.pending())
    @rule()
    def check_health(self) -> None:
        down = [f for f in self.live_fronts() if not f.shard.healthy]
        back = self.fleet.check_health()
        assert sorted(back) == sorted(
            f.shard.id for f in down
            if f.mode == "answer" or not f.shard.server.registry.entries())
        self.refresh()

    @precondition(lambda self: len(self.fleet.shards) > 2)
    @rule(pick=PICK)
    def decommission_shard(self, pick: int) -> None:
        fronts = self.live_fronts()
        front = fronts[pick % len(fronts)]
        front.retired = True
        front.mode = "raise"          # the host is gone
        self.fleet.decommission_shard(front.shard.id)
        self.refresh()

    # ------------------------------------------------------------------ #
    # Invariants
    # ------------------------------------------------------------------ #
    def roots(self) -> list:
        return [s for s in self.telemetry.tracer.spans()
                if s.name == "fleet.request"]

    @invariant()
    def conserved(self) -> None:
        stats = self.fleet.stats
        assert stats.submitted == sum(
            getattr(stats, t) for t in CONSERVED) + len(self.live)
        reg = self.telemetry.metrics
        for name in ("submitted",) + CONSERVED:
            view = reg.value(f"stats.fleet.{name}")
            assert view == getattr(stats, name), name

    @invariant()
    def exactly_once(self) -> None:
        assert self.violations == []
        assert self.raised.messages == []
        assert all(n == 1 for n in self.deliveries.values())
        for rid, future in self.futures.items():
            if future is None:
                continue
            if not future.done():
                assert rid in self.live, f"request {rid} has no attempt"
                assert self.deliveries[rid] == 0
            elif (rid not in self.checked and not future.cancelled()
                  and future.exception() is None):
                np.testing.assert_allclose(future.result(), _reference(rid),
                                           atol=1e-5)
                self.checked.add(rid)

    @invariant()
    def decommissioned_stay_down(self) -> None:
        assert not any(f.shard.healthy for f in self.fronts if f.retired)

    @invariant()
    def span_trees_are_well_formed(self) -> None:
        spans = self.telemetry.tracer.spans()
        ids = [s.span_id for s in spans]
        assert ids == sorted(set(ids))
        by_id = dict(zip(ids, spans))
        won = Counter()
        for s in spans:
            if s.parent_id is None:
                continue
            assert s.parent_id in by_id, f"orphan span {s.span_id}"
            parent = by_id[s.parent_id]
            assert parent.start <= s.start
            assert parent.end is None or s.start <= parent.end
            if s.name == "fleet.attempt":
                won[s.parent_id] += bool(s.attrs.get("won"))
            elif parent.end is not None:
                assert s.end is not None and s.end <= parent.end
        roots = self.roots()
        assert len(roots) == len(self.futures)
        done = [s for s in roots if s.end is not None]
        outcomes = Counter(s.attrs["outcome"] for s in done)
        assert set(outcomes) <= set(CONSERVED)
        stats = self.fleet.stats
        assert all(outcomes[t] == getattr(stats, t) for t in CONSERVED)
        assert {i for i, s in enumerate(roots) if s.end is None} == set(
            self.live)
        for s in done:
            assert won[s.span_id] == (s.attrs["outcome"] == "served")

    def teardown(self) -> None:
        try:
            for attempt in self.pending():
                self.release(attempt, answer=True)
            assert not self.live
            self.conserved()
            self.exactly_once()
            self.span_trees_are_well_formed()
            assert self.fleet.stats.lost == 0
        finally:
            logging.getLogger("concurrent.futures").removeHandler(
                self.raised)


def _examples(tier1: int) -> int:
    """``tier1`` scaled by the loaded hypothesis profile's example
    budget over the default's: ten-fold under ``--hypothesis-profile
    fleet-soak`` (``tests/serve/conftest.py``)."""
    return tier1 * settings.default.max_examples // settings.get_profile(
        "default").max_examples


# No shrink phase: shrinking a failing 30-step fleet program takes
# minutes, and a failure prints its whole rule sequence anyway (the
# seeded programs below fail the same invariants deterministically).
TestFleetSim = FleetSim.TestCase
TestFleetSim.settings = settings(
    max_examples=_examples(100), stateful_step_count=30, deadline=None,
    phases=[Phase.explicit, Phase.reuse, Phase.generate],
    suppress_health_check=[HealthCheck.too_slow])


# --------------------------------------------------------------------- #
# The fixed program: the golden span log
# --------------------------------------------------------------------- #
def run_program(seed: int, steps: int = 120) -> str:
    """Drive one machine through ``steps`` rules drawn from
    ``random.Random(seed)`` (a rule whose precondition fails falls back
    to a submit), checking every invariant after each step, then the
    final release-all.  Returns the span jsonl."""
    rng = random.Random(seed)

    def pick() -> int:
        return int(rng.random() * 10 ** 6)

    sim = FleetSim()
    rules = {
        "submit": lambda: sim.submit(MODELS[pick() % len(MODELS)]),
        "set_mode": lambda: sim.set_mode(
            pick(), ("answer", "raise", "hold", "hold")[pick() % 4]),
        "release_live": lambda: sim.release_live(pick(), pick() % 3 > 0),
        "release_straggler": lambda: sim.release_straggler(pick(),
                                                           pick() % 2 > 0),
        "cancel": lambda: sim.cancel(pick()),
        "expire_hung": lambda: sim.expire_hung(pick(), pick() % 4 > 0),
        "check_health": sim.check_health,
        "decommission_shard": lambda: sim.decommission_shard(pick()),
    }
    enabled = {
        "release_live": lambda: sim.live,
        "release_straggler": sim.stragglers,
        "cancel": lambda: any(f is not None and not f.done()
                              for f in sim.futures.values()),
        "expire_hung": lambda: sim.live,
        "check_health": lambda: not sim.pending(),
        "decommission_shard": lambda: len(sim.fleet.shards) > 2
        and rng.random() < 0.1,
    }
    names = ["submit"] * 4 + sorted(rules)
    for _ in range(steps):
        name = names[pick() % len(names)]
        if not enabled.get(name, lambda: True)():
            name = "submit"
        rules[name]()
        sim.conserved()
        sim.exactly_once()
        sim.decommissioned_stay_down()
        sim.span_trees_are_well_formed()
    sim.teardown()
    return sim.telemetry.tracer.export_jsonl(), sim


@pytest.fixture(scope="module")
def program_runs():
    return run_program(PROGRAM_SEED), run_program(PROGRAM_SEED)


def test_program_span_log_is_byte_identical(program_runs):
    (first, _), (second, _) = program_runs
    assert first == second


def test_program_span_log_matches_its_pinned_digest(program_runs):
    """Byte-identical across runs is not enough: the log is pinned to
    the bytes this commit produces, so a change to what the fleet does
    under the program shows up here."""
    (log, _), _ = program_runs
    assert hashlib.sha256(log.encode()).hexdigest() == PROGRAM_DIGEST


def test_program_exercises_every_fault_path(program_runs):
    """The pinned program is worth its digest: hangs, error ejections,
    late answers, re-admissions, probes, a decommission, a cancel and
    an exhausted replica set all happen, and a straggler's span shows
    the virtual time its hang took."""
    (log, sim), _ = program_runs
    s = sim.fleet.stats
    assert s.hangs and s.shard_faults > s.hangs and s.failovers
    assert s.readmissions and s.probes and s.decommissions
    assert s.cancelled and s.unavailable and s.served
    assert max(sp.end - sp.start for sp in sim.telemetry.tracer.spans()
               if sp.name == "fleet.attempt") >= BUDGET


@pytest.mark.parametrize("seed", range(12))
def test_seeded_program_keeps_every_invariant(seed):
    """Twelve more fixed programs: a deterministic sweep that fails the
    same invariants as the search, on every run."""
    run_program(seed)


def test_virtual_clock_moves_only_forward():
    clock = VirtualClock(start=5.0)
    assert clock() == 5.0
    assert clock.advance(0.5) == 5.5 and clock() == 5.5
    with pytest.raises(ValueError):
        clock.advance(-0.1)
