"""End-to-end control-plane scenarios on a live fleet (seeded chaos).

The acceptance bar for the control plane, pinned as tests:

* **Self-healing without an operator** — a storm with one shard killed
  (permanently) and one hung (transiently) while a ``ControlPlane``
  runs in the background must end with the hung shard auto-readmitted,
  the killed shard decommissioned and its keys re-replicated, zero
  requests lost, and ZERO calls to the operator seams
  (``fleet.check_health`` / ``fleet.register_model``).
* **SLO trajectory** — under a load step, then a kill the prober turns
  into a decommission, the registry's per-tick gauges record the whole
  path: the healthy-shard count dipping when the shard is ejected and
  staying at the survivors once it is removed, p99 observed every tick,
  queue depth spiking during the step.

Same harness idiom as ``test_fleet_faults.py``: seeds fixed, faults
armed by submission count (never by sleep), hangs released by events.
"""

import threading
import time

import numpy as np
import pytest

from repro import MGDiffNet, PoissonProblem2D
from repro.core.inference import predict_batch
from repro.serve import (
    ControlConfig, ControlPlane, FleetConfig, FleetUnavailable,
    ServerConfig, ServerOverloaded, ShardedFleet, Telemetry, VirtualClock,
)

SEED = 20260728


@pytest.fixture(scope="module")
def served():
    problem = PoissonProblem2D(16)
    model = MGDiffNet(ndim=2, base_filters=4, depth=1, rng=1)
    return model, problem


def _fleet(shards=3, replicas=2, shard_timeout_s=None,
           **server_kw) -> ShardedFleet:
    kw = dict(max_batch=4, max_wait_ms=0.5, workers=1, cache_bytes=0)
    kw.update(server_kw)
    return ShardedFleet(FleetConfig(
        shards=shards, replicas=replicas, shard_timeout_s=shard_timeout_s,
        server=ServerConfig(**kw)))


def _shard(fleet, shard_id):
    return next(s for s in fleet.shards if s.id == shard_id)


class _Chaos:
    """Inject one fault mode into one shard; restorable."""

    def __init__(self, shard):
        self.shard = shard
        self._forward = shard.server._forward
        self._submit = shard.server.submit
        self.release = threading.Event()
        self.entered = threading.Event()

    def kill(self):
        """The process is gone: nothing in it answers — neither new
        submissions nor batches already in flight (a served answer
        would self-readmit the shard, which a dead host cannot do)."""
        def dead(*args, **kwargs):
            raise ConnectionError(f"{self.shard.id} is gone")
        self.shard.server.submit = dead
        self.shard.server._forward = dead

    def hang(self):
        forward = self._forward

        def hung(entry, omegas, resolution, **kw):
            self.entered.set()
            assert self.release.wait(timeout=60)
            return forward(entry, omegas, resolution, **kw)
        self.shard.server._forward = hung

    def restore(self):
        self.release.set()
        self.shard.server._forward = self._forward
        self.shard.server.submit = self._submit


def _storm(fleet, names, n_clients=4, per_client=12, arm_chaos=None,
           arm_after=8, deadline_s=None):
    barrier = threading.Barrier(n_clients)
    submitted = threading.Semaphore(0)
    futures, sync_errors = [], []
    lock = threading.Lock()

    def client(cid):
        rng = np.random.default_rng(SEED + cid)
        barrier.wait()
        for i in range(per_client):
            name = names[rng.integers(len(names))]
            omega = rng.uniform(-3, 3, 4)
            priority = int(rng.integers(0, 6))
            try:
                f = fleet.submit(name, omega, priority=priority,
                                 deadline_s=deadline_s)
                with lock:
                    futures.append((name, omega, f))
            except (ServerOverloaded, FleetUnavailable) as exc:
                with lock:
                    sync_errors.append(exc)
            submitted.release()

    threads = [threading.Thread(target=client, args=(c,))
               for c in range(n_clients)]
    for t in threads:
        t.start()
    if arm_chaos is not None:
        for _ in range(arm_after):
            assert submitted.acquire(timeout=30)
        arm_chaos()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
    return futures, sync_errors


def _drain(futures, timeout=60, fleet=None):
    """Resolve every future; with ``fleet`` given, drain through
    ``await_result`` so hung shards are ejected on the waiting path."""
    results, request_errors = [], []
    for name, omega, f in futures:
        try:
            if fleet is not None:
                u = fleet.await_result(f, timeout)
            else:
                u = f.result(timeout)
            results.append((name, omega, u))
        except Exception as exc:
            request_errors.append((name, omega, exc))
    return results, request_errors


def _assert_fields_match(served_model, results, atol=1e-5, sample=10):
    model, problem = served_model
    for name, omega, u in results[:sample]:
        ref = predict_batch(model, problem, omega)[0]
        np.testing.assert_allclose(u, ref, atol=atol)


def _forbid_operator(fleet):
    """Count (and pass through) calls to the operator seams."""
    calls = {"check_health": 0, "register_model": 0}
    orig_health, orig_register = fleet.check_health, fleet.register_model

    def counted_health(*args, **kwargs):
        calls["check_health"] += 1
        return orig_health(*args, **kwargs)

    def counted_register(*args, **kwargs):
        calls["register_model"] += 1
        return orig_register(*args, **kwargs)

    fleet.check_health = counted_health
    fleet.register_model = counted_register
    return calls


def _distinct_fault_pair(fleet, names):
    """A (kill, hang) shard pair such that the storm genuinely exercises
    both faults yet every key stays servable: neither jointly owns any
    model's full replica set, and each is primary for at least one
    model — so live reads fault on the kill victim (ejecting it, with
    re-replication work to do) and genuinely stall on the hang victim."""
    ids = [s.id for s in fleet.shards]
    replica_sets = [fleet.replicas_for(n) for n in names]
    for a in ids:
        for b in ids:
            if a == b:
                continue
            if any(set(rs) <= {a, b} for rs in replica_sets):
                continue
            if not any(rs[0] == a for rs in replica_sets):
                continue
            if not any(rs[0] == b for rs in replica_sets):
                continue
            return _shard(fleet, a), _shard(fleet, b)
    pytest.skip("no disjoint fault pair under this ring layout")


class TestSelfHealingStorm:
    def test_kill_and_hang_storm_heals_without_operator(self, served):
        model, problem = served
        fleet = _fleet(shards=4, replicas=2, shard_timeout_s=0.25)
        names = [f"m{i}" for i in range(4)]
        for name in names:
            fleet.register_model(name, model, problem)
        kill_victim, hang_victim = _distinct_fault_pair(fleet, names)
        chaos_kill = _Chaos(kill_victim)
        chaos_hang = _Chaos(hang_victim)
        calls = _forbid_operator(fleet)

        plane = ControlPlane(fleet, ControlConfig(
            probe_base_backoff_s=0.05, probe_max_backoff_s=0.2,
            probe_timeout_s=0.25, permanent_after=8,
            tick_interval_s=0.02))

        def arm():
            chaos_kill.kill()
            chaos_hang.hang()

        # The hang is transient: it clears as soon as the fleet has
        # noticed it (ejection), putting recovery squarely on the
        # prober.  The kill never clears — that shard is gone for good.
        def release_once_ejected():
            deadline = time.monotonic() + 20.0
            while hang_victim.healthy and time.monotonic() < deadline:
                time.sleep(0.005)
            chaos_hang.restore()

        watcher = threading.Thread(target=release_once_ejected,
                                   daemon=True)

        with fleet, plane:
            futures, sync_errors = _storm(
                fleet, names, n_clients=4, per_client=12,
                arm_chaos=arm, arm_after=8)
            watcher.start()
            # Draining through the fleet ejects the hung shard on the
            # waiting path (shard_timeout_s); the requests fail over.
            results, request_errors = _drain(futures, fleet=fleet)
            watcher.join(timeout=30)

            # The plane (not the test) decommissions the dead shard and
            # readmits the recovered one; wait on outcomes, not sleeps.
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                gone = kill_victim.id not in [s.id for s in fleet.shards]
                if gone and hang_victim.healthy:
                    break
                time.sleep(0.01)
            assert kill_victim.id not in [s.id for s in fleet.shards]
            assert hang_victim.healthy

            # Full replication restored on the survivors, keys servable.
            rng = np.random.default_rng(SEED + 99)
            for name in names:
                replicas = fleet.replicas_for(name)
                assert kill_victim.id not in replicas
                assert len(replicas) == 2
                for sid in replicas:
                    shard = _shard(fleet, sid)
                    assert name in shard.server.registry.names()
                u = fleet.predict(name, rng.uniform(-3, 3, 4), timeout=30)
                assert u.shape == (16, 16)

        assert not request_errors, request_errors[:3]
        assert len(results) + len(sync_errors) == 48
        _assert_fields_match(served, results)

        s = fleet.stats
        assert s.lost == 0
        assert s.decommissions == 1
        assert s.reregistrations >= 1
        # The hung shard was ejected and came back — whether the probe
        # or a served answer readmitted it first, no operator did.
        assert s.readmissions >= 1
        ps = plane.stats
        assert ps.probes >= 2
        assert ps.decommissions == 1
        # Self-healing means *zero* operator intervention.
        assert calls == {"check_health": 0, "register_model": 0}

    def test_prober_readmits_after_transient_error(self, served):
        """An error fault ejects the primary; with no traffic flowing
        afterwards, only the background prober can bring it back."""
        model, problem = served
        fleet = _fleet(shards=3, replicas=2)
        fleet.register_model("m", model, problem)
        primary = _shard(fleet, fleet.replicas_for("m")[0])
        chaos = _Chaos(primary)
        calls = _forbid_operator(fleet)
        # The first read deterministically hits the (broken) primary and
        # trips the ejection.
        plane = ControlPlane(fleet, ControlConfig(
            probe_base_backoff_s=0.02,
            probe_max_backoff_s=0.1, probe_timeout_s=1.0,
            tick_interval_s=0.01))
        rng = np.random.default_rng(SEED + 7)

        def boom(entry, omegas, resolution):
            raise RuntimeError("injected error")

        with fleet, plane:
            primary.server._forward = boom
            u = fleet.predict("m", rng.uniform(-3, 3, 4), timeout=30)
            assert u.shape == (16, 16)        # replica answered
            assert not primary.healthy        # fault ejected the primary

            # While the fault persists the prober probes and backs off
            # but never readmits.  A failed *completed* probe leaves a
            # backoff schedule behind — wait on that, not on the probe
            # counter, which ticks before the probe prediction lands.
            deadline = time.monotonic() + 20.0
            while (plane.prober.next_probe_at(primary.id) == 0.0
                   and time.monotonic() < deadline):
                time.sleep(0.005)
            assert plane.prober.next_probe_at(primary.id) > 0.0
            assert plane.stats.probes >= 1
            assert not primary.healthy

            chaos.restore()                   # fault clears; no traffic
            deadline = time.monotonic() + 20.0
            while not primary.healthy and time.monotonic() < deadline:
                time.sleep(0.005)
            assert primary.healthy

            # Traffic returns to the healed primary.
            u = fleet.predict("m", rng.uniform(-3, 3, 4), timeout=30)
            assert u.shape == (16, 16)

        assert fleet.stats.lost == 0
        assert plane.stats.readmissions >= 1
        assert plane.stats.probes >= 2
        assert calls == {"check_health": 0, "register_model": 0}


class TestSLOTrajectory:
    def test_storm_records_per_tick_slo_trajectory(self, served):
        """Load step, then kill -> decommission, with telemetry live and
        no operator: the registry's SLO gauges carry the whole per-tick
        trajectory, timestamped from the plane's forged clock.  Healthy
        shards read 3 through the step, 2 once the killed shard is
        ejected (still a member), and 2 after the prober removes it;
        p99 is stamped on every tick; queue depth spikes in the step.
        Both accounting paths still reconcile."""
        model, problem = served
        fleet = _fleet(shards=3, replicas=2, shard_timeout_s=0.25)
        names = ["m0", "m1"]
        for name in names:
            fleet.register_model(name, model, problem)
        telemetry = Telemetry()
        fleet.enable_telemetry(telemetry)
        reg = telemetry.metrics
        clock = VirtualClock()
        plane = ControlPlane(fleet, ControlConfig(
            probe_base_backoff_s=0.05, probe_max_backoff_s=0.2,
            probe_timeout_s=0.25, permanent_after=2),
            clock=clock)
        rng = np.random.default_rng(SEED + 1)

        def tick():
            clock.advance(1.0)        # > max backoff: probes never wait
            plane.tick()

        with fleet:
            tick()                                 # 1: healthy baseline
            for _ in range(8):
                fleet.predict(names[0], rng.uniform(-3, 3, 4), timeout=30)
            tick()                                 # 2: p99 observed

            # Load step: hang every shard, pile up a backlog.
            hangs = [_Chaos(s) for s in fleet.shards]
            for chaos in hangs:
                chaos.hang()
            futures = []
            for i in range(24):
                name = names[i % 2]
                omega = rng.uniform(-3, 3, 4)
                futures.append((name, omega, fleet.submit(name, omega)))
            tick()                                 # 3: depth step observed
            for chaos in hangs:
                chaos.restore()
            results, request_errors = _drain(futures)
            assert not request_errors

            # Kill the current m0 primary; the fault ejects it and the
            # prober (permanent_after=2) decommissions it on its own.
            victim = _shard(fleet, fleet.replicas_for("m0")[0])
            _Chaos(victim).kill()
            u = fleet.predict("m0", rng.uniform(-3, 3, 4), timeout=30)
            assert u.shape == (16, 16)             # replica answered
            assert not victim.healthy
            tick()                                 # 4: first failed probe
            assert victim in fleet.shards
            tick()                                 # 5: decommissioned
            assert victim not in fleet.shards
            tick()                                 # 6: healed level
            for name in names:
                assert victim.id not in fleet.replicas_for(name)
                fleet.predict(name, rng.uniform(-3, 3, 4), timeout=30)

        assert fleet.stats.lost == 0
        assert len(results) == 24
        assert plane.stats.ticks == 6
        assert reg.value("control.ticks") == 6
        hist = reg.gauge("slo.healthy_shards").history
        assert [t for t, _ in hist] == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        assert [v for _, v in hist] == [3.0, 3.0, 3.0, 2.0, 2.0, 2.0]
        p99s = reg.gauge("slo.p99_ms").history
        assert [t for t, _ in p99s] == [t for t, _ in hist]
        assert p99s[0][1] == 0.0                   # nothing served yet
        assert all(v > 0.0 for _, v in p99s[1:])
        depths = [v for _, v in reg.gauge("slo.queue_depth").history]
        assert depths[0] == 0.0
        assert max(depths) >= 2.0                  # the load step
        # Views and mirrored counters agree with the fleet's stats.
        assert reg.value("stats.control.decommissions") == 1
        assert reg.value("stats.control.reregistrations") == \
            fleet.stats.reregistrations >= 1
        assert reg.value("stats.fleet.submitted") == fleet.stats.submitted
        assert reg.value("fleet.served") == fleet.stats.served
