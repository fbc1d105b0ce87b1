"""Unit tests of the control plane's deterministic cores.

Every loop body (admission, balancing, probing, autoscaling) is a pure
function of an injectable clock and the fleet state it reads, so these
tests forge the clock and stub the fleet — no sleeps, no threads, no
timing assertions.  The real-fleet integration (chaos storms with the
plane running) lives in ``test_control_scenarios.py``.
"""

import time

import numpy as np
import pytest

from repro import MGDiffNet, PoissonProblem2D
from repro.serve import (
    AdmissionController, Autoscaler, ControlConfig, ControlPlane,
    FleetConfig, HealthProber, MicroBatcher, PowerOfTwoBalancer,
    PredictRequest, PredictionServer, RequestQueue, ServerConfig,
    ShardedFleet, TenantQuota, TenantThrottled,
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
# Admission: token buckets
# --------------------------------------------------------------------- #
class TestAdmission:
    def test_burst_then_throttle_then_refill(self):
        clock = _ForgedClock()
        ctrl = AdmissionController(TenantQuota(rate=10.0, burst=3.0),
                                   clock=clock)
        assert [ctrl.try_acquire("t") for _ in range(3)] == [None] * 3
        retry = ctrl.try_acquire("t")
        assert retry == pytest.approx(0.1)     # 1 token / 10 per second
        clock.t += 0.05                        # half a token: still dry
        assert ctrl.try_acquire("t") == pytest.approx(0.05)
        clock.t += 0.05                        # bucket holds exactly 1
        assert ctrl.try_acquire("t") is None

    def test_bucket_caps_at_burst(self):
        clock = _ForgedClock()
        ctrl = AdmissionController(TenantQuota(rate=100.0, burst=2.0),
                                   clock=clock)
        clock.t += 1e6                         # eons idle: still only 2
        assert ctrl.try_acquire("t") is None
        assert ctrl.try_acquire("t") is None
        assert ctrl.try_acquire("t") is not None

    def test_tenants_are_isolated(self):
        clock = _ForgedClock()
        ctrl = AdmissionController(TenantQuota(rate=1.0, burst=1.0),
                                   clock=clock)
        ctrl.set_quota("vip", TenantQuota(rate=1.0, burst=100.0))
        assert ctrl.try_acquire("noisy") is None
        assert ctrl.try_acquire("noisy") is not None   # noisy is dry...
        for _ in range(50):                            # ...vip is not
            assert ctrl.try_acquire("vip") is None
        snap = ctrl.snapshot()
        assert snap["noisy"]["throttled"] == 1
        assert snap["vip"]["admitted"] == 50
        assert ctrl.admitted == 51 and ctrl.throttled == 1

    def test_quota_validation(self):
        with pytest.raises(ValueError):
            TenantQuota(rate=0.0, burst=5.0)
        with pytest.raises(ValueError):
            TenantQuota(rate=1.0, burst=0.5)


# --------------------------------------------------------------------- #
# Balancing: power of two choices
# --------------------------------------------------------------------- #
class _StubShard:
    def __init__(self, sid, depth, healthy=True):
        self.id = sid
        self.queue_depth = depth
        self.healthy = healthy

    def __repr__(self):
        return self.id


class TestPowerOfTwo:
    def test_picks_shallower_of_sampled_pair(self):
        balancer = PowerOfTwoBalancer(seed=SEED)
        hot = _StubShard("a", depth=50)
        cold = _StubShard("b", depth=0)
        order = balancer.order([hot, cold])
        # Two replicas: the sample is always {a, b}; cold must win.
        assert order == [cold, hot]
        assert balancer.diversions == 1

    def test_tie_keeps_ring_order(self):
        balancer = PowerOfTwoBalancer(seed=SEED)
        a, b = _StubShard("a", 3), _StubShard("b", 3)
        for _ in range(20):
            assert balancer.order([a, b])[0] is a
        assert balancer.diversions == 0

    def test_result_always_contains_all_replicas(self):
        balancer = PowerOfTwoBalancer(seed=SEED)
        replicas = [_StubShard(f"s{i}", i) for i in range(4)]
        for _ in range(50):
            order = balancer.order(list(replicas))
            assert sorted(s.id for s in order) == \
                sorted(s.id for s in replicas)

    def test_unhealthy_replicas_never_promoted(self):
        balancer = PowerOfTwoBalancer(seed=SEED)
        down = _StubShard("down", 0, healthy=False)
        up1, up2 = _StubShard("up1", 5), _StubShard("up2", 9)
        for _ in range(50):
            assert balancer.order([down, up1, up2])[0] is not down

    def test_single_healthy_replica_keeps_ring_order(self):
        balancer = PowerOfTwoBalancer(seed=SEED)
        replicas = [_StubShard("a", 9),
                    _StubShard("b", 0, healthy=False)]
        assert balancer.order(replicas) == replicas
        assert balancer.decisions == 0

    def test_seeded_replay_is_deterministic(self):
        replicas = [_StubShard(f"s{i}", i % 3) for i in range(5)]
        runs = []
        for _ in range(2):
            balancer = PowerOfTwoBalancer(seed=7)
            runs.append([balancer.order(list(replicas))[0].id
                         for _ in range(30)])
        assert runs[0] == runs[1]

    def test_spreads_load_off_hot_primary(self):
        """Under a 'hot primary' gauge the two-choice rule must divert
        most reads — the property the skew benchmark gates end to end."""
        balancer = PowerOfTwoBalancer(seed=SEED)
        hot = _StubShard("hot", 100)
        cold = _StubShard("cold", 1)
        picks = [balancer.order([hot, cold])[0].id for _ in range(100)]
        assert picks.count("cold") == 100


# --------------------------------------------------------------------- #
# Probing: backoff schedule and permanent loss (stub fleet)
# --------------------------------------------------------------------- #
class _StubFleet:
    """Just enough fleet for the prober: shards, probe, decommission."""

    def __init__(self, shard_ids, probe_results=None):
        import threading
        self._lock = threading.RLock()
        self.shards = [_StubShard(sid, 0) for sid in shard_ids]
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
# Autoscaling: hysteresis over a stub fleet
# --------------------------------------------------------------------- #
class _ScalingStubFleet(_StubFleet):
    def __init__(self, depths):
        super().__init__([f"s{i}" for i in range(len(depths))])
        for shard, depth in zip(self.shards, depths):
            shard.queue_depth = depth
        self.added = 0
        self.retired = 0

    def set_depths(self, depth):
        for shard in self.shards:
            shard.queue_depth = depth

    def add_shard(self):
        self.added += 1
        shard = _StubShard(f"new{self.added}", 0)
        self.shards.append(shard)
        return shard.id

    def retire_shard(self, shard_id=None, drain_timeout_s=None):
        self.retired += 1
        victim = self.shards[-1]
        self.shards = self.shards[:-1]
        return victim.id


class TestAutoscaler:
    def test_scale_up_needs_the_full_streak(self):
        fleet = _ScalingStubFleet([10.0, 10.0])
        scaler = Autoscaler(fleet, min_shards=1, max_shards=4,
                            scale_up_depth=8.0, scale_down_depth=1.0,
                            up_streak=3, down_streak=2)
        assert scaler.tick() is None
        assert scaler.tick() is None
        assert scaler.tick() == "up"
        assert fleet.added == 1

    def test_dead_band_resets_streaks(self):
        fleet = _ScalingStubFleet([10.0, 10.0])
        scaler = Autoscaler(fleet, min_shards=1, max_shards=4,
                            scale_up_depth=8.0, scale_down_depth=1.0,
                            up_streak=2, down_streak=2)
        assert scaler.tick() is None       # 1 of 2
        fleet.set_depths(4.0)              # moderate load: dead band
        assert scaler.tick() is None       # streak reset
        fleet.set_depths(10.0)
        assert scaler.tick() is None       # back to 1 of 2
        assert scaler.tick() == "up"

    def test_scale_down_drains_at_low_load(self):
        fleet = _ScalingStubFleet([0.0, 0.0, 0.0])
        scaler = Autoscaler(fleet, min_shards=2, max_shards=4,
                            scale_up_depth=8.0, scale_down_depth=0.5,
                            up_streak=2, down_streak=2)
        assert scaler.tick() is None
        assert scaler.tick() == "down"
        assert fleet.retired == 1
        assert len(fleet.shards) == 2
        # At min_shards the scaler stays quiescent however idle.
        for _ in range(5):
            assert scaler.tick() is None
        assert fleet.retired == 1

    def test_bounds_are_respected(self):
        fleet = _ScalingStubFleet([10.0, 10.0])
        scaler = Autoscaler(fleet, min_shards=1, max_shards=3,
                            scale_up_depth=8.0, scale_down_depth=0.5,
                            up_streak=1, down_streak=1)
        assert scaler.tick() == "up"       # 3 shards: at max now
        fleet.set_depths(10.0)
        for _ in range(5):
            assert scaler.tick() is None
        assert len(fleet.shards) == 3

    def test_unhealthy_shards_do_not_dilute_the_gauge(self):
        fleet = _ScalingStubFleet([10.0, 10.0, 0.0])
        fleet.shards[2].healthy = False    # idle because it gets nothing
        scaler = Autoscaler(fleet, min_shards=1, max_shards=4,
                            scale_up_depth=8.0, scale_down_depth=0.5,
                            up_streak=1, down_streak=1)
        assert scaler.tick() == "up"       # mean over healthy = 10, not 6.7

    def test_parameter_validation(self):
        fleet = _ScalingStubFleet([0.0])
        with pytest.raises(ValueError):
            Autoscaler(fleet, min_shards=3, max_shards=2)
        with pytest.raises(ValueError):
            Autoscaler(fleet, scale_up_depth=1.0, scale_down_depth=2.0)
        with pytest.raises(ValueError):
            Autoscaler(fleet, up_streak=0)


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
# Fleet integration: admission + membership on a real fleet
# --------------------------------------------------------------------- #
def _small_fleet(shards=3, replicas=2, **server_kw):
    kw = dict(max_batch=4, max_wait_ms=0.5, workers=1, cache_bytes=0)
    kw.update(server_kw)
    return ShardedFleet(FleetConfig(shards=shards, replicas=replicas,
                                    server=ServerConfig(**kw)))


class TestFleetAdmission:
    def test_throttled_requests_conserve(self, served):
        model, problem = served
        fleet = _small_fleet()
        fleet.register_model("m", model, problem)
        clock = _ForgedClock()
        fleet.admission = AdmissionController(
            TenantQuota(rate=10.0, burst=2.0), clock=clock)
        rng = np.random.default_rng(SEED)
        with fleet:
            fleet.predict("m", rng.uniform(-3, 3, 4), tenant="t")
            fleet.predict("m", rng.uniform(-3, 3, 4), tenant="t")
            with pytest.raises(TenantThrottled) as info:
                fleet.predict("m", rng.uniform(-3, 3, 4), tenant="t")
            assert info.value.tenant == "t"
            assert info.value.retry_after_s == pytest.approx(0.1)
            # Untagged traffic is never metered.
            fleet.predict("m", rng.uniform(-3, 3, 4))
        s = fleet.stats
        assert s.submitted == 4
        assert s.served == 3 and s.throttled == 1
        assert s.lost == 0

    def test_async_facade_threads_tenant_through(self, served):
        import asyncio
        from repro.serve import AsyncPredictionServer
        model, problem = served
        fleet = _small_fleet()
        fleet.register_model("m", model, problem)
        fleet.admission = AdmissionController(
            TenantQuota(rate=10.0, burst=1.0), clock=_ForgedClock())

        async def scenario():
            async with AsyncPredictionServer(fleet) as aserver:
                await aserver.predict("m", np.zeros(4), tenant="t")
                with pytest.raises(TenantThrottled):
                    await aserver.predict("m", np.ones(4), tenant="t")

        asyncio.run(scenario())
        assert fleet.stats.lost == 0


class TestFleetMembership:
    def test_add_shard_rebalances_with_minimal_movement(self, served):
        model, problem = served
        fleet = _small_fleet(shards=3, replicas=2)
        names = [f"m{i}" for i in range(6)]
        for name in names:
            fleet.register_model(name, model, problem)
        before = {name: fleet.replicas_for(name) for name in names}
        rng = np.random.default_rng(SEED + 1)
        with fleet:
            new_id = fleet.add_shard()
            # Every key routes to live replicas holding its model.
            for name in names:
                replicas = fleet.replicas_for(name)
                for sid in replicas:
                    shard = next(s for s in fleet.shards if s.id == sid)
                    assert name in shard.server.registry.names()
                u = fleet.predict(name, rng.uniform(-3, 3, 4), timeout=30)
                assert u.shape == (16, 16)
        after = {name: fleet.replicas_for(name) for name in names}
        moved = [n for n in names if set(after[n]) != set(before[n])]
        unmoved = [n for n in names if after[n] == before[n]]
        # Consistent hashing: some keys moved onto the new shard, but
        # not all of them — and only onto the newcomer.
        assert new_id == "shard-03"
        for name in moved:
            assert new_id in set(after[name])
        assert unmoved, "adding one shard must not reshuffle every key"
        s = fleet.stats
        assert s.scale_ups == 1 and s.lost == 0

    def test_retire_shard_drains_and_survivors_serve(self, served):
        model, problem = served
        fleet = _small_fleet(shards=3, replicas=2)
        names = [f"m{i}" for i in range(4)]
        for name in names:
            fleet.register_model(name, model, problem)
        rng = np.random.default_rng(SEED + 2)
        with fleet:
            retired_id = fleet.retire_shard(drain_timeout_s=10.0)
            assert retired_id not in [s.id for s in fleet.shards]
            for name in names:
                replicas = fleet.replicas_for(name)
                assert retired_id not in replicas
                for sid in replicas:
                    shard = next(s for s in fleet.shards if s.id == sid)
                    assert name in shard.server.registry.names()
                u = fleet.predict(name, rng.uniform(-3, 3, 4), timeout=30)
                assert u.shape == (16, 16)
        s = fleet.stats
        assert s.scale_downs == 1 and s.lost == 0
        assert s.shards == 2

    def test_cannot_remove_the_last_shard(self, served):
        model, problem = served
        fleet = _small_fleet(shards=1, replicas=1)
        fleet.register_model("m", model, problem)
        with pytest.raises(ValueError):
            fleet.retire_shard()
        with pytest.raises(ValueError):
            fleet.decommission_shard(fleet.shards[0].id)

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

    def test_shard_ids_never_recycle(self, served):
        model, problem = served
        fleet = _small_fleet(shards=2, replicas=1)
        fleet.register_model("m", model, problem)
        with fleet:
            retired = fleet.retire_shard()
            added = fleet.add_shard()
        assert added not in (retired, fleet.shards[0].id)


# --------------------------------------------------------------------- #
# ControlPlane facade
# --------------------------------------------------------------------- #
class TestControlPlane:
    def test_installs_and_uninstalls_fleet_seams(self, served):
        model, problem = served
        fleet = _small_fleet()
        fleet.register_model("m", model, problem)
        plane = ControlPlane(fleet, ControlConfig(tenant_rate=100.0))
        assert fleet.balancer is plane.balancer
        assert fleet.admission is plane.admission
        plane.uninstall()
        assert fleet.balancer is None and fleet.admission is None

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
