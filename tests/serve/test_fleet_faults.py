"""Fault-injection hardening of the sharded fleet (seeded chaos).

The fleet's contract under faults, pinned deterministically:

* **Conservation law** — every submitted request ends as exactly one of
  served / rejected / expired / errors / cancelled / unavailable
  (``FleetStats.lost == 0``), storms and kills included.
* **Failover** — killing / erroring / hanging any *single* shard under
  mixed-priority load loses zero requests; the answers that arrive come
  from replicas and match the single-server field to <= 1e-5.
* **Recovery** — an ejected shard whose fault clears is re-admitted by
  a health probe and traffic returns to it.

The chaos harness injects faults the way an operator would see them:

* ``error``  — the shard's forward raises mid-batch;
* ``kill``   — the shard's submit itself dies (process gone);
* ``hang``   — the forward blocks until released (detected via
  ``shard_timeout_s`` ejection in the blocking front-end).

Seeds are fixed; synchronization is via events and counters, never
sleeps on the assertion path.
"""

import threading

import numpy as np
import pytest

from repro import MGDiffNet, PoissonProblem2D
from repro.core.inference import predict_batch
from repro.serve import (
    DeadlineExceeded, FleetConfig, FleetUnavailable, ServerConfig,
    ServerOverloaded, ShardedFleet,
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
        self.entered = threading.Event()   # a hung forward has begun

    def error(self):
        def boom(entry, omegas, resolution):
            raise RuntimeError(f"injected error on {self.shard.id}")
        self.shard.server._forward = boom

    def kill(self):
        def dead(*args, **kwargs):
            raise ConnectionError(f"{self.shard.id} is gone")
        self.shard.server.submit = dead

    def hang(self):
        forward = self._forward

        def hung(entry, omegas, resolution):
            self.entered.set()
            assert self.release.wait(timeout=60)
            return forward(entry, omegas, resolution)
        self.shard.server._forward = hung

    def restore(self):
        self.release.set()
        self.shard.server._forward = self._forward
        self.shard.server.submit = self._submit


def _storm(fleet, names, n_clients=4, per_client=12, arm_chaos=None,
           arm_after=8, deadline_s=None):
    """Seeded mixed-priority storm; returns (futures, sync_errors).

    ``arm_chaos`` (if given) fires once the fleet has accepted
    ``arm_after`` submissions — the fault lands mid-storm by
    construction, not by sleep.
    """
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


def _drain(futures, timeout=60):
    """Resolve every future; returns (results, request_errors)."""
    results, request_errors = [], []
    for name, omega, f in futures:
        try:
            results.append((name, omega, f.result(timeout)))
        except Exception as exc:
            request_errors.append((name, omega, exc))
    return results, request_errors


def _assert_fields_match(served_model, results, atol=1e-5, sample=10):
    model, problem = served_model
    for name, omega, u in results[:sample]:
        ref = predict_batch(model, problem, omega)[0]
        np.testing.assert_allclose(u, ref, atol=atol)


class TestSingleFaultFailover:
    def test_error_fault_fails_over_to_replica(self, served):
        model, problem = served
        fleet = _fleet()
        fleet.register_model("m", model, problem)
        primary = _shard(fleet, fleet.replicas_for("m")[0])
        chaos = _Chaos(primary)
        chaos.error()
        omega = np.random.default_rng(SEED).uniform(-3, 3, 4)
        with fleet:
            u = fleet.predict("m", omega, timeout=30)
        np.testing.assert_allclose(u, predict_batch(model, problem, omega)[0],
                                   atol=1e-5)
        s = fleet.stats
        assert not primary.healthy
        assert s.shard_faults == 1
        assert s.failovers >= 1
        assert s.served == 1 and s.lost == 0

    def test_kill_fault_fails_over_synchronously(self, served):
        model, problem = served
        fleet = _fleet()
        fleet.register_model("m", model, problem)
        primary = _shard(fleet, fleet.replicas_for("m")[0])
        chaos = _Chaos(primary)
        chaos.kill()
        omega = np.random.default_rng(SEED + 1).uniform(-3, 3, 4)
        with fleet:
            u = fleet.predict("m", omega, timeout=30)
        np.testing.assert_allclose(u, predict_batch(model, problem, omega)[0],
                                   atol=1e-5)
        assert not primary.healthy
        assert fleet.stats.lost == 0

    def test_hang_fault_ejected_via_timeout(self, served):
        model, problem = served
        fleet = _fleet(shard_timeout_s=0.25)
        fleet.register_model("m", model, problem)
        primary = _shard(fleet, fleet.replicas_for("m")[0])
        chaos = _Chaos(primary)
        chaos.hang()
        omega = np.random.default_rng(SEED + 2).uniform(-3, 3, 4)
        with fleet:
            u = fleet.predict("m", omega, timeout=30)
            np.testing.assert_allclose(
                u, predict_batch(model, problem, omega)[0], atol=1e-5)
            assert not primary.healthy
            # Release the hung forward; its late answer must not
            # double-deliver or double-count.
            chaos.release.set()
        s = fleet.stats
        assert s.hangs == 1
        assert s.served == 1 and s.lost == 0
        # Latency is anchored on submit, not on the failover dispatch:
        # the shard_timeout_s burned on the hung primary must show up.
        assert s.p50 >= 0.25

    def test_hang_failover_on_raw_submit_futures(self, served):
        """await_result gives submit/drain clients (the CLI loop,
        predict_many) the same hang ejection predict() has — the
        --shard-timeout flag must work on that path too."""
        model, problem = served
        fleet = _fleet(shard_timeout_s=0.25)
        fleet.register_model("m", model, problem)
        primary = _shard(fleet, fleet.replicas_for("m")[0])
        chaos = _Chaos(primary)
        chaos.hang()
        rng = np.random.default_rng(SEED + 9)
        omegas = rng.uniform(-3, 3, (2, 4))
        with fleet:
            futures = [fleet.submit("m", w) for w in omegas]
            fields = [fleet.await_result(f, timeout=30) for f in futures]
            assert not primary.healthy
            chaos.release.set()
        for w, u in zip(omegas, fields):
            np.testing.assert_allclose(
                u, predict_batch(model, problem, w)[0], atol=1e-5)
        s = fleet.stats
        assert s.hangs == 1
        assert s.served == 2 and s.lost == 0

    def test_replica_failover_matches_primary_answer(self, served):
        """The same ω served before and after a primary kill returns
        the same field (replicas hold the same version)."""
        model, problem = served
        fleet = _fleet()
        fleet.register_model("m", model, problem)
        omega = np.random.default_rng(SEED + 3).uniform(-3, 3, 4)
        with fleet:
            before = fleet.predict("m", omega, timeout=30)
            primary = _shard(fleet, fleet.replicas_for("m")[0])
            chaos = _Chaos(primary)
            chaos.error()
            after = fleet.predict("m", omega, timeout=30)
        np.testing.assert_allclose(after, before, atol=1e-5)


class TestRecovery:
    def test_probe_readmits_recovered_shard(self, served):
        model, problem = served
        fleet = _fleet()
        fleet.register_model("m", model, problem)
        primary = _shard(fleet, fleet.replicas_for("m")[0])
        chaos = _Chaos(primary)
        chaos.error()
        rng = np.random.default_rng(SEED + 4)
        with fleet:
            fleet.predict("m", rng.uniform(-3, 3, 4), timeout=30)
            assert not primary.healthy
            # Probe while still broken: stays ejected.
            assert fleet.check_health() == []
            assert not primary.healthy
            chaos.restore()
            assert fleet.check_health() == [primary.id]
            assert primary.healthy
            # Traffic returns to the re-admitted primary.
            before = primary.server.stats.requests
            fleet.predict("m", rng.uniform(-3, 3, 4), timeout=30)
            assert primary.server.stats.requests > before
        s = fleet.stats
        assert s.probes == 2
        assert s.readmissions == 1
        assert s.lost == 0

    def test_falsely_ejected_replicas_self_heal_before_unavailable(
            self, served):
        """Shards ejected while actually healthy (e.g. hang budget hit
        by a backlog, not a fault): routing makes a last pass ignoring
        health marks, and the shard that answers re-admits itself —
        the key self-heals instead of black-holing for the run."""
        model, problem = served
        fleet = _fleet(shards=3, replicas=2)
        fleet.register_model("m", model, problem)
        replica_ids = fleet.replicas_for("m")
        for sid in replica_ids:
            fleet._eject(_shard(fleet, sid),
                         TimeoutError("false hang ejection"), hang=True)
        rng = np.random.default_rng(SEED + 8)
        with fleet:
            u = fleet.predict("m", rng.uniform(-3, 3, 4), timeout=30)
            assert u.shape == (16, 16)
            s = fleet.stats
            # The serving shard re-admitted itself; its twin stays
            # ejected until an explicit probe.
            assert s.readmissions == 1
            assert s.unavailable == 0
            assert s.served == 1 and s.lost == 0
            assert _shard(fleet, replica_ids[0]).healthy
            fleet.check_health()
        assert fleet.stats.healthy_shards == 3

    def test_answer_dispatched_before_ejection_does_not_readmit(
            self, served):
        """A forward that was already computing when its host died
        answers *after* another request's fault ejected the shard.
        That straggler is not health evidence: re-admitting on it would
        hide the dead shard from the prober (it probes unhealthy shards
        only) until live traffic happened to fault on it again."""
        model, problem = served
        fleet = _fleet()
        fleet.register_model("m", model, problem)
        primary = _shard(fleet, fleet.replicas_for("m")[0])
        chaos = _Chaos(primary)
        chaos.hang()                      # gates A's forward
        wa, wb = np.random.default_rng(SEED + 10).uniform(-3, 3, (2, 4))
        with fleet:
            a = fleet.submit("m", wa)
            assert chaos.entered.wait(timeout=30)   # A computes on primary
            chaos.kill()                  # the host dies under it
            ub = fleet.submit("m", wb).result(timeout=30)   # B: replica
            assert not primary.healthy    # B's fault ejected the primary
            chaos.release.set()           # A answers, dispatched pre-eject
            ua = a.result(timeout=30)
        # The worker threads are joined: every done-callback has run.
        for w, u in ((wa, ua), (wb, ub)):
            np.testing.assert_allclose(
                u, predict_batch(model, problem, w)[0], atol=1e-5)
        assert not primary.healthy
        s = fleet.stats
        assert s.shard_faults == 1 and s.readmissions == 0
        assert s.served == 2 and s.lost == 0

    def test_false_hang_heals_on_a_late_answer_without_a_prober(
            self, served):
        """The other side of the straggler rule: a slow-but-live shard
        ejected on a *hang* (the budget includes queue wait) re-admits
        itself when a request that was already queued on it answers —
        no prober installed, no ``check_health()`` call.  A hang is a
        suspicion any answer refutes; only an error ejection discounts
        answers dispatched before it."""
        model, problem = served
        fleet = _fleet(shard_timeout_s=0.25)
        fleet.register_model("m", model, problem)
        primary = _shard(fleet, fleet.replicas_for("m")[0])
        chaos = _Chaos(primary)
        chaos.hang()                      # gates A's forward
        wa, wb = np.random.default_rng(SEED + 11).uniform(-3, 3, (2, 4))
        with fleet:
            a = fleet.submit("m", wa)
            assert chaos.entered.wait(timeout=30)   # A computes on primary
            b = fleet.submit("m", wb)     # B queues behind it
            ua = fleet.await_result(a, timeout=30)  # budget out: replica
            assert not primary.healthy and fleet.stats.hangs == 1
            chaos.restore()               # slow, not dead
            ub = b.result(timeout=30)     # dispatched pre-eject, primary
        for w, u in ((wa, ua), (wb, ub)):
            np.testing.assert_allclose(
                u, predict_batch(model, problem, w)[0], atol=1e-5)
        assert primary.healthy
        s = fleet.stats
        assert s.shard_faults == 1 and s.readmissions == 1
        assert s.served == 2 and s.lost == 0

    def test_all_replicas_down_raises_fleet_unavailable(self, served):
        model, problem = served
        fleet = _fleet(shards=3, replicas=2)
        fleet.register_model("m", model, problem)
        chaos = [_Chaos(_shard(fleet, sid))
                 for sid in fleet.replicas_for("m")]
        for c in chaos:
            c.kill()
        rng = np.random.default_rng(SEED + 5)
        with fleet:
            with pytest.raises(FleetUnavailable) as info:
                fleet.predict("m", rng.uniform(-3, 3, 4), timeout=30)
            assert info.value.attempted == fleet.replicas_for("m")
            # Both replicas recover: service resumes.
            for c in chaos:
                c.restore()
            assert sorted(fleet.check_health()) == \
                sorted(fleet.replicas_for("m"))
            u = fleet.predict("m", rng.uniform(-3, 3, 4), timeout=30)
            assert u.shape == (16, 16)
        s = fleet.stats
        assert s.unavailable == 1
        assert s.served == 1
        assert s.lost == 0


class TestChaosStorms:
    @pytest.mark.parametrize("mode", ["error", "kill"])
    def test_mid_storm_fault_loses_nothing(self, served, mode):
        model, problem = served
        fleet = _fleet(shards=4, replicas=2)
        names = [f"m{i}" for i in range(4)]
        for name in names:
            fleet.register_model(name, model, problem)
        victim = _shard(fleet, fleet.replicas_for(names[0])[0])
        chaos = _Chaos(victim)
        with fleet:
            futures, sync_errors = _storm(
                fleet, names, arm_chaos=getattr(chaos, mode))
            results, request_errors = _drain(futures)
        assert sync_errors == []
        assert request_errors == []
        assert len(results) == 48
        _assert_fields_match(served, results)
        s = fleet.stats
        assert s.submitted == 48
        assert s.served == 48
        assert s.lost == 0
        assert s.errors == 0 and s.unavailable == 0 and s.cancelled == 0

    @pytest.mark.parametrize("victim_idx", [0, 1, 2])
    def test_killing_any_single_shard_loses_nothing(self, served,
                                                    victim_idx):
        """The acceptance criterion verbatim: killing *any* single
        shard under mixed-priority load loses zero requests."""
        model, problem = served
        fleet = _fleet(shards=3, replicas=2)
        names = [f"m{i}" for i in range(3)]
        for name in names:
            fleet.register_model(name, model, problem)
        chaos = _Chaos(fleet.shards[victim_idx])
        with fleet:
            futures, sync_errors = _storm(
                fleet, names, n_clients=3, per_client=8,
                arm_chaos=chaos.kill, arm_after=6)
            results, request_errors = _drain(futures)
        assert sync_errors == []
        assert request_errors == []
        assert len(results) == 24
        _assert_fields_match(served, results, sample=6)
        s = fleet.stats
        assert s.submitted == 24 and s.served == 24 and s.lost == 0

    def test_storm_with_doa_deadlines_conserves(self, served):
        """Dead-on-arrival deadlines expire (never forwarded) while the
        rest serve — expiry is part of the conservation law, and a
        fault mid-storm must not break that."""
        model, problem = served
        fleet = _fleet(shards=3, replicas=2)
        names = ["m0", "m1"]
        for name in names:
            fleet.register_model(name, model, problem)
        chaos = _Chaos(_shard(fleet, fleet.replicas_for("m0")[0]))
        with fleet:
            live, _ = _storm(fleet, names, n_clients=2, per_client=6,
                             arm_chaos=chaos.error, arm_after=4)
            doomed = [fleet.submit("m0", np.full(4, 0.5 + i),
                                   deadline_s=-1.0) for i in range(3)]
            results, request_errors = _drain(live)
            expired_seen = 0
            for f in doomed:
                with pytest.raises(DeadlineExceeded):
                    f.result(timeout=30)
                expired_seen += 1
        assert request_errors == []
        s = fleet.stats
        assert s.submitted == 12 + 3
        assert s.served == len(results) == 12
        assert s.expired == expired_seen == 3
        assert s.lost == 0

    def test_backpressure_rejections_conserve(self, served):
        """ServerOverloaded propagates as a rejection (no ejection) and
        the books still balance."""
        model, problem = served
        fleet = _fleet(shards=2, replicas=1, max_pending=1,
                       max_batch=1, max_wait_ms=0)
        fleet.register_model("m", model, problem)
        primary = _shard(fleet, fleet.replicas_for("m")[0])
        hold = _Chaos(primary)
        hold.hang()                       # wedge the only worker
        rng = np.random.default_rng(SEED + 6)
        with fleet:
            first = fleet.submit("m", rng.uniform(-3, 3, 4))
            assert hold.entered.wait(timeout=30)   # worker wedged in it
            # Worker is busy computing `first`; this one fills the queue.
            second = fleet.submit("m", rng.uniform(-3, 3, 4))
            rejected = 0
            try:
                fleet.submit("m", rng.uniform(-3, 3, 4))
            except ServerOverloaded:
                rejected = 1
            hold.release.set()
            first.result(timeout=30)
            second.result(timeout=30)
        s = fleet.stats
        assert rejected == 1
        assert s.rejected == 1
        assert s.served == 2
        assert s.shard_faults == 0        # backpressure never ejects
        assert primary.healthy
        assert s.lost == 0
