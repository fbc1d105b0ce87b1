"""Unit tests of the control plane's deterministic core.

The prober's loop body is a pure function of an injectable clock and
the fleet state it reads, so these tests forge the clock and stub the
fleet — no sleeps, no threads, no timing assertions.  The membership
path the prober drives (``decommission_shard``) is checked on real
fleets, including a hypothesis property over fleet shapes.  The
real-fleet integration (chaos storms with the plane running) lives in
``test_control_scenarios.py``.
"""

import time
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MGDiffNet, PoissonProblem2D
from repro.serve import (
    ControlConfig, ControlPlane, ControlStats, FleetConfig, HealthProber,
    MicroBatcher, PredictRequest, PredictionServer, RegistryError,
    RequestQueue, ServerConfig, ShardedFleet, Telemetry, VirtualClock,
)
from repro.serve.registry import ModelRegistry

SEED = 20260808


@pytest.fixture(scope="module")
def served():
    problem = PoissonProblem2D(16)
    model = MGDiffNet(ndim=2, base_filters=4, depth=1, rng=1)
    return model, problem


class _ForgedClock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t


# --------------------------------------------------------------------- #
# Probing: backoff schedule and permanent loss (stub fleet)
# --------------------------------------------------------------------- #
class _StubShard:
    def __init__(self, sid, healthy=True):
        self.id = sid
        self.healthy = healthy

    def __repr__(self):
        return self.id


class _StubFleet:
    """Just enough fleet for the prober: shards, probe, decommission."""

    def __init__(self, shard_ids, probe_results=None):
        import threading
        self._lock = threading.RLock()
        self.shards = [_StubShard(sid) for sid in shard_ids]
        self.probe_results = probe_results or {}   # sid -> bool
        self.probe_log = []
        self.decommissioned = []

    def probe_shard(self, shard, timeout_s=None):
        self.probe_log.append((shard.id, timeout_s))
        ok = self.probe_results.get(shard.id, False)
        if ok:
            shard.healthy = True
        return ok

    def decommission_shard(self, shard_id):
        self.decommissioned.append(shard_id)
        self.shards = [s for s in self.shards if s.id != shard_id]
        return 2   # pretend two (key, shard) re-registrations


class TestHealthProber:
    def test_healthy_fleet_probes_nothing(self):
        fleet = _StubFleet(["a", "b"])
        prober = HealthProber(fleet, clock=_ForgedClock())
        assert prober.tick(now=0.0) == []
        assert fleet.probe_log == []

    def test_exponential_backoff_schedule(self):
        fleet = _StubFleet(["a", "b"])
        fleet.shards[0].healthy = False
        prober = HealthProber(fleet, base_backoff_s=1.0, max_backoff_s=8.0,
                              probe_timeout_s=0.5, jitter=0.0)
        # Failing probes: immediately, then +1, +2, +4, +8, +8, ... s.
        assert prober.tick(now=0.0) == ["a"]
        assert prober.next_probe_at("a") == pytest.approx(1.0)
        assert prober.tick(now=0.5) == []          # inside backoff
        assert prober.tick(now=1.0) == ["a"]
        assert prober.next_probe_at("a") == pytest.approx(3.0)
        assert prober.tick(now=3.0) == ["a"]
        assert prober.next_probe_at("a") == pytest.approx(7.0)
        assert prober.tick(now=7.0) == ["a"]
        assert prober.next_probe_at("a") == pytest.approx(15.0)  # capped
        assert prober.tick(now=15.0) == ["a"]
        assert prober.next_probe_at("a") == pytest.approx(23.0)  # stays 8
        assert prober.probes == 5 and prober.backoffs == 1
        # Every probe carried the short explicit budget.
        assert all(t == 0.5 for _, t in fleet.probe_log)

    def test_successful_probe_readmits_and_resets_schedule(self):
        fleet = _StubFleet(["a"], probe_results={"a": False})
        fleet.shards[0].healthy = False
        prober = HealthProber(fleet, base_backoff_s=1.0, max_backoff_s=8.0,
                              jitter=0.0)
        prober.tick(now=0.0)
        prober.tick(now=1.0)
        fleet.probe_results["a"] = True          # shard recovers
        assert prober.tick(now=3.0) == ["a"]
        assert prober.readmissions == 1
        assert fleet.shards[0].healthy
        # A later re-ejection starts a fresh (immediate) schedule.
        fleet.shards[0].healthy = False
        fleet.probe_results["a"] = False
        assert prober.tick(now=3.5) == ["a"]

    def test_permanent_loss_decommissions_and_rereplicates(self):
        fleet = _StubFleet(["a", "b", "c"])
        fleet.shards[0].healthy = False
        prober = HealthProber(fleet, base_backoff_s=1.0, max_backoff_s=1.0,
                              permanent_after=3, jitter=0.0)
        now = 0.0
        for _ in range(3):
            prober.tick(now=now)
            now += 1.0
        assert fleet.decommissioned == ["a"]
        assert prober.decommissions == 1
        assert prober.reregistrations == 2
        assert [s.id for s in fleet.shards] == ["b", "c"]
        # No lingering schedule for the removed shard.
        assert prober.tick(now=now) == []

    def test_last_shard_is_never_decommissioned(self):
        fleet = _StubFleet(["only"])
        fleet.shards[0].healthy = False
        prober = HealthProber(fleet, base_backoff_s=1.0, max_backoff_s=1.0,
                              permanent_after=2, jitter=0.0)
        for k in range(6):
            prober.tick(now=float(k))
        assert fleet.decommissioned == []
        assert len(fleet.shards) == 1

    def test_parameter_validation(self):
        fleet = _StubFleet(["a"])
        with pytest.raises(ValueError):
            HealthProber(fleet, base_backoff_s=0.0)
        with pytest.raises(ValueError):
            HealthProber(fleet, base_backoff_s=2.0, max_backoff_s=1.0)
        with pytest.raises(ValueError):
            HealthProber(fleet, permanent_after=0)
        with pytest.raises(ValueError):
            HealthProber(fleet, jitter=-0.1)
        with pytest.raises(ValueError):
            HealthProber(fleet, jitter=1.5)


class TestProberJitter:
    """Full-jittered backoff de-synchronizes correlated ejections."""

    def test_simultaneous_ejections_get_distinct_schedules(self):
        """Shards ejected by one event must not probe in lockstep: with
        jitter on, every next_probe_at in the cohort differs."""
        ids = [f"s{i}" for i in range(6)]
        fleet = _StubFleet(ids)
        for shard in fleet.shards:
            shard.healthy = False           # one correlated mass-eject
        prober = HealthProber(fleet, base_backoff_s=1.0, max_backoff_s=8.0,
                              jitter=1.0, seed=3)
        assert prober.tick(now=0.0) == ids  # first probes are immediate
        nexts = [prober.next_probe_at(sid) for sid in ids]
        assert len(set(nexts)) == len(ids)
        # Full jitter stays inside the window: (0, base * 2^0] here.
        assert all(0.0 < t <= 1.0 for t in nexts)

    def test_partial_jitter_keeps_floor(self):
        fleet = _StubFleet(["a"])
        fleet.shards[0].healthy = False
        prober = HealthProber(fleet, base_backoff_s=1.0, max_backoff_s=8.0,
                              jitter=0.25, seed=0)
        prober.tick(now=0.0)
        assert 0.75 <= prober.next_probe_at("a") <= 1.0

    def test_jittered_schedule_is_deterministic_per_seed(self):
        def schedule(seed):
            fleet = _StubFleet(["a", "b", "c"])
            for shard in fleet.shards:
                shard.healthy = False
            prober = HealthProber(fleet, base_backoff_s=1.0,
                                  max_backoff_s=8.0, jitter=1.0, seed=seed)
            out = []
            for k in range(4):
                prober.tick(now=float(10 * k))   # past any backoff
                out.extend(prober.next_probe_at(s) for s in ("a", "b", "c"))
            return out

        assert schedule(5) == schedule(5)
        assert schedule(5) != schedule(6)

    def test_zero_jitter_reproduces_exact_schedule(self):
        fleet = _StubFleet(["a"])
        fleet.shards[0].healthy = False
        prober = HealthProber(fleet, base_backoff_s=1.0, max_backoff_s=8.0,
                              jitter=0.0, seed=123)
        prober.tick(now=0.0)
        assert prober.next_probe_at("a") == pytest.approx(1.0)


# --------------------------------------------------------------------- #
# EDF hold shrink in the micro-batcher
# --------------------------------------------------------------------- #
class TestDeadlineAwareHold:
    def _request(self, expires_in=None):
        now = time.perf_counter()
        return PredictRequest(
            model_name="m", omega=np.zeros(4), resolution=16, future=None,
            expires_at=None if expires_in is None else now + expires_in)

    def test_tight_deadline_shrinks_the_hold(self):
        batcher = MicroBatcher(max_batch=8, max_wait_ms=500.0)
        source = RequestQueue()
        source.put(self._request(expires_in=0.01))
        t0 = time.perf_counter()
        batch = batcher.collect(source)
        elapsed = time.perf_counter() - t0
        assert len(batch) == 1
        # Dispatched at the request's slack (~10ms), not the 500ms hold.
        assert elapsed < 0.25

    def test_relaxed_requests_keep_the_full_hold(self):
        batcher = MicroBatcher(max_batch=8, max_wait_ms=60.0)
        source = RequestQueue()
        source.put(self._request())
        t0 = time.perf_counter()
        batch = batcher.collect(source)
        elapsed = time.perf_counter() - t0
        assert len(batch) == 1
        assert elapsed >= 0.05

    def test_late_companion_can_shrink_further(self):
        batcher = MicroBatcher(max_batch=8, max_wait_ms=500.0)
        source = RequestQueue()
        source.put(self._request(expires_in=30.0))   # relaxed
        source.put(self._request(expires_in=0.01))   # tight companion
        t0 = time.perf_counter()
        batch = batcher.collect(source)
        elapsed = time.perf_counter() - t0
        assert len(batch) == 2
        assert elapsed < 0.25


# --------------------------------------------------------------------- #
# Queue-depth gauge
# --------------------------------------------------------------------- #
class TestQueueDepth:
    def test_idle_server_reports_zero(self, served):
        model, problem = served
        registry = ModelRegistry()
        registry.register_model("m", model, problem)
        server = PredictionServer(registry, ServerConfig(workers=1))
        assert server.queue_depth() == 0
        assert server.stats.queue_depth == 0

    def test_queued_and_inflight_requests_count(self, served):
        import threading
        model, problem = served
        registry = ModelRegistry()
        registry.register_model("m", model, problem)
        server = PredictionServer(registry, ServerConfig(
            workers=1, max_batch=1, max_wait_ms=0, cache_bytes=0))
        entered, release = threading.Event(), threading.Event()
        forward = server._forward

        def hung(entry, omegas, resolution):
            entered.set()
            assert release.wait(timeout=30)
            return forward(entry, omegas, resolution)

        server._forward = hung
        with server:
            first = server.submit("m", np.zeros(4))
            assert entered.wait(timeout=30)
            second = server.submit("m", np.ones(4))
            # One in flight (hung in the forward) + one pending.
            assert server.queue_depth() == 2
            release.set()
            first.result(30)
            second.result(30)
            assert server.queue_depth() == 0

    def test_fleet_stats_surface_the_gauge(self, served):
        model, problem = served
        fleet = ShardedFleet(FleetConfig(shards=2, replicas=1))
        fleet.register_model("m", model, problem)
        stats = fleet.stats
        for row in stats.per_shard.values():
            assert row["queue_depth"] == 0


# --------------------------------------------------------------------- #
# Fleet integration: permanent-loss membership on a real fleet
# --------------------------------------------------------------------- #
def _small_fleet(shards=3, replicas=2, **server_kw):
    kw = dict(max_batch=4, max_wait_ms=0.5, workers=1, cache_bytes=0)
    kw.update(server_kw)
    return ShardedFleet(FleetConfig(shards=shards, replicas=replicas,
                                    server=ServerConfig(**kw)))


class TestFleetMembership:
    def test_cannot_remove_the_last_shard(self, served):
        model, problem = served
        fleet = _small_fleet(shards=1, replicas=1)
        fleet.register_model("m", model, problem)
        with pytest.raises(ValueError):
            fleet.decommission_shard(fleet.shards[0].id)
        assert len(fleet.shards) == 1

    def test_ejection_keeps_the_shard_on_the_ring(self, served):
        """Only a decommission changes membership: an ejected shard
        keeps its ring points and reads fail over past it."""
        model, problem = served
        fleet = _small_fleet(shards=3, replicas=2)
        names = [f"m{i}" for i in range(4)]
        for name in names:
            fleet.register_model(name, model, problem)
        routes = {name: fleet.replicas_for(name) for name in names}
        victim = fleet.shards[0]
        fleet._eject(victim, ConnectionError("gone"))
        assert {name: fleet.replicas_for(name) for name in names} == routes
        rng = np.random.default_rng(SEED + 6)
        for name in names:
            fleet.predict(name, rng.uniform(-3, 3, 4), timeout=30)
        assert victim.server.stats.requests == 0
        s = fleet.stats
        assert s.shards == 3 and s.served == len(names) and s.lost == 0

    def test_fleet_totals_keep_a_decommissioned_shards_history(
            self, served):
        model, problem = served
        fleet = _small_fleet(shards=3, replicas=2)
        fleet.register_model("m", model, problem)
        victim = fleet._by_id[fleet.replicas_for("m")[0]]
        rng = np.random.default_rng(SEED + 7)
        for _ in range(3):                       # unstarted: the primary
            fleet.predict("m", rng.uniform(-3, 3, 4))   # serves inline
        assert victim.server.stats.requests == 3
        before = fleet.stats
        fleet.decommission_shard(victim.id)
        after = fleet.stats
        assert victim.id not in after.per_shard
        assert (after.requests, after.batches) == (before.requests,
                                                   before.batches)

    def test_request_in_flight_on_a_decommissioned_shard_resolves(
            self, served):
        """Teardown drains: a forward already running on the removed
        shard finishes and its answer is delivered, not lost."""
        import threading
        model, problem = served
        fleet = _small_fleet(shards=3, replicas=2)
        fleet.register_model("m", model, problem)
        victim = fleet._by_id[fleet.replicas_for("m")[0]]
        entered, release = threading.Event(), threading.Event()
        forward = victim.server._forward

        def held(*args, **kwargs):
            entered.set()
            assert release.wait(timeout=30)
            return forward(*args, **kwargs)

        victim.server._forward = held
        with fleet:
            future = fleet.submit("m", np.zeros(4))
            assert entered.wait(timeout=30)
            fleet.decommission_shard(victim.id)
            assert victim.id not in fleet.replicas_for("m")
            release.set()
            assert future.result(timeout=30).shape == (16, 16)
        s = fleet.stats
        assert s.served == 1 and s.failovers == 0 and s.lost == 0

    def test_unknown_shard_is_a_no_op(self, served):
        model, problem = served
        fleet = _small_fleet(shards=2, replicas=2)
        fleet.register_model("m", model, problem)
        assert fleet.decommission_shard("shard-99") == 0
        s = fleet.stats
        assert s.shards == 2 and s.decommissions == 0

    def test_decommission_rereplicates_lost_keys(self, served):
        model, problem = served
        fleet = _small_fleet(shards=3, replicas=2)
        names = [f"m{i}" for i in range(4)]
        for name in names:
            fleet.register_model(name, model, problem)
        victim = fleet.shards[0]
        rng = np.random.default_rng(SEED + 3)
        with fleet:
            moves = fleet.decommission_shard(victim.id)
            assert victim.id not in [s.id for s in fleet.shards]
            for name in names:
                # Full R-way replication restored on the survivors.
                replicas = fleet.replicas_for(name)
                assert len(replicas) == 2
                assert victim.id not in replicas
                for sid in replicas:
                    shard = next(s for s in fleet.shards if s.id == sid)
                    assert name in shard.server.registry.names()
                u = fleet.predict(name, rng.uniform(-3, 3, 4), timeout=30)
                assert u.shape == (16, 16)
        s = fleet.stats
        assert s.decommissions == 1
        assert s.reregistrations == moves
        assert s.lost == 0


def _holdings(fleet) -> dict[str, set[str]]:
    """Shard id -> names registered on it, for every live shard."""
    return {s.id: set(s.server.registry.names()) for s in fleet.shards}


def _check_decommission(fleet, victim_id: str, names: list[str]):
    """Decommission one shard and check the membership invariants.

    Returns the names no live shard holds any more (a key whose every
    holder was the lost shard: only possible at one replica)."""
    before = _holdings(fleet)
    del before[victim_id]
    routes = {name: fleet.replicas_for(name) for name in names}
    reregs = fleet.stats.reregistrations
    moves = fleet.decommission_shard(victim_id)
    after = _holdings(fleet)
    assert set(after) == set(before)
    # Minimal movement: a key the lost shard did not serve keeps its
    # replica list; one it did keeps every surviving replica.
    for name, route in routes.items():
        now = fleet.replicas_for(name)
        if victim_id not in route:
            assert now == route, name
        else:
            assert set(route) - {victim_id} <= set(now), name
    # No survivor loses a registration ...
    for sid, held in before.items():
        assert held <= after[sid], sid
    # ... every new (key, shard) registration is counted, once ...
    assert moves == sum(len(after[sid] - before[sid]) for sid in before)
    assert fleet.stats.reregistrations - reregs == moves
    # ... and a key with a surviving holder sits on every replica the
    # new ring assigns it.  A key without one is not copied back from
    # the lost host.
    orphans = [n for n in names if not any(n in held
                                           for held in before.values())]
    for name in names:
        replica_ids = fleet.replicas_for(name)
        assert victim_id not in replica_ids
        assert len(replica_ids) == min(fleet.config.replicas,
                                       len(fleet.shards))
        if name not in orphans:
            assert all(name in after[sid] for sid in replica_ids), name
        else:
            assert not any(name in held for held in after.values())
    return orphans


def _read_each(fleet, names, orphans, rng):
    """One read per model: served unless orphaned, never lost."""
    before = fleet.stats
    for name in names:
        if name in orphans:
            with pytest.raises(RegistryError):
                fleet.predict(name, rng.uniform(-3, 3, 4), timeout=30)
        else:
            u = fleet.predict(name, rng.uniform(-3, 3, 4), timeout=30)
            assert u.shape == (16, 16)
    after = fleet.stats
    assert after.served - before.served == len(names) - len(orphans)
    assert after.errors - before.errors == len(orphans)
    assert after.lost == 0


# (shards, replicas, models, victim index), shards in 2..5.
FLEET_SHAPES = st.integers(2, 5).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(1, 3), st.integers(1, 6), st.integers(0, n - 1)))


class TestDecommissionProperties:
    """The membership path the prober drives, over fleet shapes.

    The fleets stay unstarted, so every read runs inline on the test's
    thread: a property example costs a few tiny forwards, no threads.
    """

    @settings(max_examples=30, deadline=None)
    @given(shape=FLEET_SHAPES)
    def test_decommission_keeps_every_surviving_key_replicated(
            self, served, shape):
        n_shards, replicas, n_models, victim = shape
        model, problem = served
        fleet = _small_fleet(shards=n_shards, replicas=replicas)
        names = [f"m{i}" for i in range(n_models)]
        for name in names:
            fleet.register_model(name, model, problem)
        orphans = _check_decommission(fleet, fleet.shards[victim].id, names)
        if min(replicas, n_shards) > 1:
            assert orphans == []          # R >= 2 always leaves a holder
        _read_each(fleet, names, orphans, np.random.default_rng(SEED))
        assert fleet.stats.decommissions == 1

    @settings(max_examples=15, deadline=None)
    @given(shards=st.integers(3, 5), replicas=st.integers(1, 3),
           n_models=st.integers(1, 6), data=st.data())
    def test_a_second_loss_never_resurrects_from_the_first(
            self, served, shards, replicas, n_models, data):
        """Two hosts lost in turn: the first is no copy source for the
        second reconcile, so a key orphaned by the first stays orphaned
        and every other key is back at full replication both times."""
        model, problem = served
        fleet = _small_fleet(shards=shards, replicas=replicas)
        names = [f"m{i}" for i in range(n_models)]
        for name in names:
            fleet.register_model(name, model, problem)
        ids = [s.id for s in fleet.shards]
        first, second = data.draw(st.permutations(ids))[:2]
        orphans = _check_decommission(fleet, first, names)
        later = _check_decommission(fleet, second, names)
        assert set(orphans) <= set(later)
        _read_each(fleet, names, later, np.random.default_rng(SEED + 5))
        s = fleet.stats
        assert s.decommissions == 2 and s.shards == shards - 2


# --------------------------------------------------------------------- #
# ControlPlane facade
# --------------------------------------------------------------------- #
class TestControlPlane:
    def test_deterministic_tick_probes_with_backoff(self, served):
        model, problem = served
        fleet = _small_fleet()
        fleet.register_model("m", model, problem)
        clock = _ForgedClock()
        plane = ControlPlane(fleet, ControlConfig(
            probe_base_backoff_s=1.0, probe_max_backoff_s=4.0,
            probe_timeout_s=5.0, probe_jitter=0.0), clock=clock)
        victim = next(s for s in fleet.shards
                      if s.id == fleet.replicas_for("m")[0])
        # Break the shard's submit so probes genuinely fail.
        original = victim.server.submit
        victim.server.submit = lambda *a, **k: (_ for _ in ()).throw(
            ConnectionError("gone"))
        with fleet:
            fleet._eject(victim, ConnectionError("gone"))
            plane.tick(now=0.0)                 # probe: fails
            assert plane.stats.probes == 1
            plane.tick(now=0.5)                 # backed off
            assert plane.stats.probes == 1
            plane.tick(now=1.0)                 # probe again: fails
            assert plane.stats.probes == 2
            victim.server.submit = original     # shard recovers
            plane.tick(now=3.0)
            assert plane.stats.readmissions == 1
            assert victim.healthy
        assert fleet.stats.lost == 0

    def test_background_thread_heals_without_operator(self, served):
        model, problem = served
        fleet = _small_fleet()
        fleet.register_model("m", model, problem)
        plane = ControlPlane(fleet, ControlConfig(
            probe_base_backoff_s=0.01, probe_max_backoff_s=0.05,
            tick_interval_s=0.01))
        victim = next(s for s in fleet.shards
                      if s.id == fleet.replicas_for("m")[0])
        with fleet, plane:
            assert plane.running
            fleet._eject(victim, RuntimeError("transient"))
            deadline = time.monotonic() + 10.0
            while not victim.healthy and time.monotonic() < deadline:
                time.sleep(0.005)
            assert victim.healthy
        assert not plane.running
        assert plane.stats.readmissions >= 1
        assert fleet.stats.lost == 0

    def test_tick_decommissions_a_dead_shard(self, served):
        """Forged clock, no thread: ``permanent_after`` failed probes
        hand the shard to ``decommission_shard``, whose re-registrations
        the plane and the fleet count alike."""
        model, problem = served
        fleet = _small_fleet(shards=3, replicas=2)
        names = [f"m{i}" for i in range(4)]
        for name in names:
            fleet.register_model(name, model, problem)
        plane = ControlPlane(fleet, ControlConfig(
            probe_base_backoff_s=1.0, probe_max_backoff_s=1.0,
            probe_timeout_s=5.0, permanent_after=2, probe_jitter=0.0),
            clock=_ForgedClock())
        victim = fleet._by_id[fleet.replicas_for("m0")[0]]
        victim.server.submit = lambda *a, **k: (_ for _ in ()).throw(
            ConnectionError("gone"))
        fleet._eject(victim, ConnectionError("gone"))
        plane.tick(now=0.0)                     # first failed probe
        assert victim in fleet.shards
        plane.tick(now=1.0)                     # second: decommissioned
        assert victim not in fleet.shards
        ps, fs = plane.stats, fleet.stats
        assert ps.decommissions == fs.decommissions == 1
        assert ps.reregistrations == fs.reregistrations >= 1
        for name in names:
            for sid in fleet.replicas_for(name):
                assert name in fleet._by_id[sid].server.registry.names()
        rng = np.random.default_rng(SEED + 4)
        for name in names:
            fleet.predict(name, rng.uniform(-3, 3, 4), timeout=30)
        assert fleet.stats.served == len(names)
        assert fleet.stats.lost == 0

    def test_stats_views_mirror_the_prober_counters(self, served):
        model, problem = served
        fleet = _small_fleet()
        fleet.register_model("m", model, problem)
        telemetry = Telemetry(clock=VirtualClock())
        fleet.enable_telemetry(telemetry)
        plane = ControlPlane(fleet, ControlConfig(probe_jitter=0.0),
                             clock=_ForgedClock())
        victim = fleet._by_id[fleet.replicas_for("m")[0]]
        victim.server.submit = lambda *a, **k: (_ for _ in ()).throw(
            ConnectionError("gone"))
        fleet._eject(victim, ConnectionError("gone"))
        for t in (0.0, 0.01, 10.0):             # probe, back off, probe
            plane.tick(now=t)
        reg = telemetry.metrics
        views = sorted(n for n in reg.names()
                       if n.startswith("stats.control."))
        counters = [f.name for f in fields(ControlStats)]
        assert views == sorted(f"stats.control.{n}" for n in counters)
        stats = plane.stats
        for name in counters:
            assert reg.value(f"stats.control.{name}") == getattr(stats, name)
        assert (stats.ticks, stats.probes, stats.backoffs) == (3, 2, 1)
        assert reg.value("control.ticks") == 3

    def test_views_register_on_the_first_telemetry_visible_tick(
            self, served):
        model, problem = served
        fleet = _small_fleet()
        fleet.register_model("m", model, problem)
        plane = ControlPlane(fleet, clock=_ForgedClock())
        plane.tick(now=0.0)                     # no telemetry yet
        telemetry = Telemetry(clock=VirtualClock())
        fleet.enable_telemetry(telemetry)
        reg = telemetry.metrics
        assert "stats.control.ticks" not in reg.names()
        plane.tick(now=1.0)
        assert reg.value("stats.control.ticks") == 2    # every tick
        assert reg.value("control.ticks") == 1          # visible ones
        history = reg.gauge("slo.healthy_shards").history
        assert history == [(1.0, 3.0)]

    def test_start_and_stop_are_idempotent(self, served):
        model, problem = served
        fleet = _small_fleet()
        fleet.register_model("m", model, problem)
        plane = ControlPlane(fleet, ControlConfig(tick_interval_s=0.01))
        assert not plane.running
        assert plane.start() is plane
        thread = plane._thread
        assert plane.start() is plane and plane._thread is thread
        plane.stop()
        plane.stop()
        assert not plane.running and not thread.is_alive()
        with plane:                             # restartable after a stop
            assert plane.running
        assert not plane.running
        assert plane.stats.ticks >= 2
        assert repr(plane) == "ControlPlane(prober, idle)"

    def test_config_and_stats_are_the_prober_and_its_loop(self):
        """The plane's settable values are the prober's five and the
        tick interval; its counters are the prober's five and ticks."""
        assert [f.name for f in fields(ControlConfig)] == [
            "probe_base_backoff_s", "probe_max_backoff_s",
            "probe_timeout_s", "permanent_after", "probe_jitter",
            "tick_interval_s"]
        assert [f.name for f in fields(ControlStats)] == [
            "ticks", "probes", "backoffs", "readmissions",
            "decommissions", "reregistrations"]
