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
* **Probing** — ``check_health()`` probes only ejected, live shards,
  once per call, with a fresh ω, a budget above the hang threshold and
  a priority above any client's.
* **Hang expiry** — ``expire_hung(now)`` fails over exactly the
  attempts dispatched ``shard_timeout_s`` before ``now``, re-arms on
  every re-dispatch, and is a no-op without a budget; a started fleet
  runs one watchdog thread for it, only when ``shard_timeout_s`` is set.

The chaos harness injects faults the way an operator would see them:

* ``error``  — the shard's forward raises mid-batch;
* ``kill``   — the shard's submit itself dies (process gone);
* ``hang``   — the forward blocks until released (detected by the
  fleet's watchdog, ``shard_timeout_s`` after the attempt's dispatch,
  on every fleet future).

Seeds are fixed; synchronization is via events and counters, never
sleeps on the assertion path.
"""

import threading
import time
from concurrent.futures import Future

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
        def boom(entry, omegas, resolution, trace):
            raise RuntimeError(f"injected error on {self.shard.id}")
        self.shard.server._forward = boom

    def kill(self):
        def dead(*args, **kwargs):
            raise ConnectionError(f"{self.shard.id} is gone")
        self.shard.server.submit = dead

    def hang(self):
        forward = self._forward

        def hung(entry, omegas, resolution, trace):
            self.entered.set()
            assert self.release.wait(timeout=60)
            return forward(entry, omegas, resolution, trace=trace)
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

    def test_plain_submit_result_heals_a_hung_primary(self, served):
        """No drain helper: a plain ``submit(...).result()`` on a hung
        primary returns the replica's field, because the fleet's
        watchdog — not the caller — expires the attempt."""
        model, problem = served
        fleet = _fleet(shard_timeout_s=0.25)
        fleet.register_model("m", model, problem)
        primary = _shard(fleet, fleet.replicas_for("m")[0])
        chaos = _Chaos(primary)
        chaos.hang()
        omega = np.random.default_rng(SEED + 12).uniform(-3, 3, 4)
        with fleet:
            u = fleet.submit("m", omega).result(timeout=10)
            assert not primary.healthy
            chaos.release.set()
        np.testing.assert_allclose(
            u, predict_batch(model, problem, omega)[0], atol=1e-5)
        s = fleet.stats
        assert s.hangs == 1
        assert s.served == 1 and s.lost == 0

    def test_hang_failover_on_raw_submit_futures(self, served):
        """Submit/drain clients (the CLI loop, predict_many) get the
        same hang ejection predict() has — the --shard-timeout flag
        must work on that path too."""
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
            fields = [f.result(timeout=30) for f in futures]
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


def _watchdogs() -> set:
    return {t for t in threading.enumerate() if t.name == "fleet-watchdog"}


class _Held:
    """A hung host on an *unstarted* fleet: the shard's submit hands
    back a pending future, which the test resolves later (a late
    answer or a late error)."""

    def __init__(self, shard):
        self.futures: list[Future] = []
        shard.server.submit = self.submit

    def submit(self, *args, **kwargs) -> Future:
        future = Future()
        self.futures.append(future)
        return future


class TestHangWatchdog:
    """``expire_hung`` driven with an explicit ``now`` on an unstarted
    fleet (submits run inline), and the watchdog thread's lifecycle."""

    BUDGET = 10.0

    def _held_fleet(self, served, hold=1, shard_timeout_s=BUDGET):
        """A 3-shard R=2 fleet whose first ``hold`` replicas of ``m``
        hang; returns (fleet, replicas, helds, ω, reference field)."""
        model, problem = served
        fleet = _fleet(shard_timeout_s=shard_timeout_s)
        fleet.register_model("m", model, problem)
        replicas = [_shard(fleet, i) for i in fleet.replicas_for("m")]
        helds = [_Held(shard) for shard in replicas[:hold]]
        omega = np.random.default_rng(SEED + 40).uniform(-3, 3, 4)
        return (fleet, replicas, helds, omega,
                predict_batch(model, problem, omega)[0])

    def test_no_watchdog_thread_without_a_hang_budget(self, served):
        model, problem = served
        fleet = _fleet()
        fleet.register_model("m", model, problem)
        before = _watchdogs()
        with fleet:
            # The slot too: a watchdog started without a budget dies at
            # once, so a thread count alone can miss it.
            assert fleet._watchdog is None
            assert _watchdogs() == before
            fleet.predict("m", np.zeros(4), timeout=30)
            assert _watchdogs() == before

    def test_one_watchdog_per_started_fleet_stopped_with_it(self, served):
        """Starting twice runs one watchdog; ``stop`` wakes it from its
        wait (far shorter than the budget) and joins it; a restart runs
        a fresh one, which ``close`` joins too."""
        fleet = _fleet(shard_timeout_s=100.0)
        before = _watchdogs()
        fleet.start()
        fleet.start()
        first = _watchdogs() - before
        assert len(first) == 1
        t0 = time.monotonic()
        fleet.stop()
        assert time.monotonic() - t0 < 50.0
        assert not any(t.is_alive() for t in first)
        fleet.start()
        second = _watchdogs() - before
        assert len(second) == 1 and not second & first
        fleet.close()
        assert _watchdogs() - before == set()

    def test_without_a_budget_nothing_ever_expires(self, served):
        fleet, (primary, _), (held,), omega, ref = self._held_fleet(
            served, shard_timeout_s=None)
        future = fleet.submit("m", omega)
        assert fleet.expire_hung(float("inf")) == 0
        assert primary.healthy and not future.done()
        held.futures[0].set_result(ref)
        np.testing.assert_allclose(future.result(timeout=0), ref, atol=1e-5)
        s = fleet.stats
        assert s.hangs == 0 and s.served == 1 and s.lost == 0

    def test_only_attempts_due_by_now_fail_over(self, served):
        fleet, (primary, replica), _, omega, ref = self._held_fleet(served)
        t0 = time.monotonic()
        future = fleet.submit("m", omega)
        t1 = time.monotonic()
        assert fleet.expire_hung(t0 + self.BUDGET / 2) == 0
        assert primary.healthy and not future.done()
        assert fleet.expire_hung(t1 + self.BUDGET) == 1
        assert not primary.healthy and replica.healthy
        assert primary.ejected_at is None        # a hang, not an error
        np.testing.assert_allclose(future.result(timeout=0), ref, atol=1e-5)
        s = fleet.stats
        assert s.hangs == 1 and s.failovers == 1
        assert s.served == 1 and s.lost == 0

    def test_a_redispatch_rearms_with_a_fresh_deadline(self, served):
        """Both replicas hang: one call expires the primary's attempt
        but never the replica attempt it dispatched itself; that one
        expires a budget after its own dispatch."""
        fleet, (primary, replica), helds, omega, ref = self._held_fleet(
            served, hold=2)
        future = fleet.submit("m", omega)
        now = time.monotonic() + self.BUDGET
        assert fleet.expire_hung(now) == 1
        assert [len(h.futures) for h in helds] == [1, 1]
        assert fleet.expire_hung(now) == 0
        assert replica.healthy and not future.done()
        assert fleet.expire_hung(time.monotonic() + self.BUDGET) == 1
        assert not replica.healthy and not future.done()
        # The ignore-health pass: back to the (still hung) primary.
        assert [len(h.futures) for h in helds] == [2, 1]
        helds[0].futures[1].set_result(ref)
        np.testing.assert_allclose(future.result(timeout=0), ref, atol=1e-5)
        s = fleet.stats
        assert s.hangs == 2 and s.failovers == 2
        assert s.served == 1 and s.lost == 0

    def test_late_answers_after_expiry_deliver_once_and_readmit(
            self, served):
        """The replica's answer wins; the hung primary's late answer
        delivers nothing twice but refutes its hang ejection."""
        fleet, (primary, replica), helds, omega, ref = self._held_fleet(
            served, hold=2)
        future = fleet.submit("m", omega)
        deliveries = []
        future.add_done_callback(deliveries.append)
        assert fleet.expire_hung(time.monotonic() + self.BUDGET) == 1
        helds[1].futures[0].set_result(ref)
        assert deliveries == [future]
        np.testing.assert_allclose(future.result(timeout=0), ref, atol=1e-5)
        assert not primary.healthy
        helds[0].futures[0].set_result(ref + 1.0)
        assert deliveries == [future] and primary.healthy
        np.testing.assert_allclose(future.result(timeout=0), ref, atol=1e-5)
        s = fleet.stats
        assert s.hangs == 1 and s.readmissions == 1
        assert s.served == 1 and s.submitted == 1 and s.lost == 0

    def test_a_delivered_request_is_disarmed(self, served):
        fleet, (primary, _), (held,), omega, ref = self._held_fleet(served)
        future = fleet.submit("m", omega)
        held.futures[0].set_result(ref)
        assert future.done()
        assert fleet.expire_hung(float("inf")) == 0
        assert primary.healthy
        s = fleet.stats
        assert s.hangs == 0 and s.failovers == 0 and s.served == 1

    def test_a_stragglers_late_error_does_not_fail_over_again(self, served):
        """After expiry the primary's attempt is a straggler: its late
        error is recorded on the shard but must not re-dispatch the
        request past the live replica attempt."""
        fleet, (primary, replica), helds, omega, ref = self._held_fleet(
            served, hold=2)
        future = fleet.submit("m", omega)
        assert fleet.expire_hung(time.monotonic() + self.BUDGET) == 1
        faults = primary.fault_count
        helds[0].futures[0].set_exception(RuntimeError("late error"))
        assert primary.fault_count == faults + 1
        assert [len(h.futures) for h in helds] == [1, 1]
        assert fleet.stats.failovers == 1 and not future.done()
        helds[1].futures[0].set_result(ref)
        np.testing.assert_allclose(future.result(timeout=0), ref, atol=1e-5)
        s = fleet.stats
        assert s.failovers == 1 and s.served == 1 and s.lost == 0


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
        mark the dead shard healthy until live traffic happened to fault
        on it again."""
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
            ua = a.result(timeout=30)     # budget out: replica
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


def _probe_calls(shard):
    """Record the keyword arguments of every ``predict`` the shard's
    front-end receives, passing each call through."""
    calls = []
    predict = shard.server.predict

    def recorded(*args, **kwargs):
        calls.append((args, kwargs))
        return predict(*args, **kwargs)
    shard.server.predict = recorded
    return calls


def _distinct_fault_pair(fleet, names):
    """A (kill, hang) shard pair such that the storm exercises both
    faults yet every key stays servable: neither pair jointly owns any
    model's full replica set, and each is primary for at least one
    model."""
    ids = [s.id for s in fleet.shards]
    replica_sets = [fleet.replicas_for(n) for n in names]
    for a in ids:
        for b in ids:
            if a == b or any(set(rs) <= {a, b} for rs in replica_sets):
                continue
            if (any(rs[0] == a for rs in replica_sets)
                    and any(rs[0] == b for rs in replica_sets)):
                return _shard(fleet, a), _shard(fleet, b)
    raise AssertionError("no disjoint fault pair under this ring layout")


class TestCheckHealth:
    """``check_health()`` is the fleet's one probe path: what it probes,
    with which budget and ω, and what it leaves alone."""

    def test_healthy_fleet_probes_nothing(self, served):
        model, problem = served
        fleet = _fleet()
        fleet.register_model("m", model, problem)
        calls = [_probe_calls(s) for s in fleet.shards]
        with fleet:
            assert fleet.check_health() == []
        assert all(c == [] for c in calls)
        assert all(s.server.stats.requests == 0 for s in fleet.shards)
        assert fleet.stats.probes == 0 and fleet.stats.readmissions == 0

    @pytest.mark.parametrize("shard_timeout_s,budget_s", [
        (None, 30.0), (0.25, 30.0), (20.0, 80.0)])
    def test_probe_budget_is_four_hang_budgets_with_a_30s_floor(
            self, served, shard_timeout_s, budget_s):
        """The probe must succeed on a shard ejected for being slow, so
        its budget sits well above the hang threshold."""
        model, problem = served
        fleet = _fleet(shard_timeout_s=shard_timeout_s)
        fleet.register_model("m", model, problem)
        primary = _shard(fleet, fleet.replicas_for("m")[0])
        calls = _probe_calls(primary)
        fleet._eject(primary, TimeoutError("slow"), hang=True)
        with fleet:
            assert fleet.check_health() == [primary.id]
        [(_, kwargs)] = calls
        assert kwargs["timeout"] == pytest.approx(budget_s)

    def test_probe_outranks_every_client_priority(self, served):
        """A probe jumps the backlog that may have caused a false
        ejection: its priority is above any a client sends."""
        model, problem = served
        fleet = _fleet()
        fleet.register_model("m", model, problem)
        primary = _shard(fleet, fleet.replicas_for("m")[0])
        calls = _probe_calls(primary)
        fleet._eject(primary, TimeoutError("slow"), hang=True)
        with fleet:
            fleet.check_health()
        [(_, kwargs)] = calls
        assert kwargs["priority"] >= 2 ** 31

    def test_probe_is_never_answered_from_the_cache(self, served):
        """Each probe sends a fresh ω: a field cached by an earlier
        probe must not vouch for a forward path that broke since."""
        model, problem = served
        fleet = _fleet(cache_bytes=1 << 20)
        fleet.register_model("m", model, problem)
        primary = _shard(fleet, fleet.replicas_for("m")[0])
        calls = _probe_calls(primary)
        with fleet:
            fleet._eject(primary, TimeoutError("slow"), hang=True)
            assert fleet.check_health() == [primary.id]
            _Chaos(primary).error()
            fleet._eject(primary, RuntimeError("broken"))
            assert fleet.check_health() == []
            assert not primary.healthy
        first, second = (args[1] for args, _ in calls)
        assert not np.array_equal(first, second)
        assert primary.server.cache.stats.hits == 0
        s = fleet.stats
        assert s.probes == 2 and s.readmissions == 1

    def test_shard_serving_no_models_is_readmitted_without_a_request(
            self, served):
        model, problem = served
        fleet = _fleet(shards=3, replicas=2)
        fleet.register_model("m", model, problem)
        [idle] = [s for s in fleet.shards
                  if s.id not in fleet.replicas_for("m")]
        calls = _probe_calls(idle)
        fleet._eject(idle, RuntimeError("flap"))
        with fleet:
            assert fleet.check_health() == [idle.id]
        assert idle.healthy and calls == []
        assert idle.server.stats.requests == 0
        assert fleet.stats.probes == 1 and fleet.stats.readmissions == 1

    def test_every_ejected_shard_is_probed_once_per_call(self, served):
        model, problem = served
        fleet = _fleet(shards=3, replicas=2)
        fleet.register_model("m", model, problem)
        for shard in fleet.shards:
            fleet._eject(shard, TimeoutError("slow"), hang=True)
        with fleet:
            assert sorted(fleet.check_health()) == \
                sorted(s.id for s in fleet.shards)
            assert fleet.check_health() == []
        s = fleet.stats
        assert s.probes == 3 and s.readmissions == 3
        assert s.healthy_shards == 3

    def test_decommissioned_shard_is_never_probed(self, served):
        model, problem = served
        fleet = _fleet(shards=3, replicas=2)
        fleet.register_model("m", model, problem)
        victim = _shard(fleet, fleet.replicas_for("m")[0])
        calls = _probe_calls(victim)
        fleet._eject(victim, RuntimeError("host lost"))
        with fleet:
            fleet.decommission_shard(victim.id)
            assert fleet.check_health() == []
        assert calls == [] and not victim.healthy
        assert fleet.stats.probes == 0
        assert victim.id not in [s.id for s in fleet.shards]

    def test_kill_and_hang_storm_heals_through_the_operator_path(
            self, served):
        """One shard dies for good and one hangs transiently mid-storm.
        Nothing is lost; the operator decommissions the dead shard (its
        keys re-replicate on the survivors) and ``check_health()`` —
        or the hung shard's own late answer — brings the other back."""
        model, problem = served
        fleet = _fleet(shards=4, replicas=2, shard_timeout_s=0.25)
        names = [f"m{i}" for i in range(4)]
        for name in names:
            fleet.register_model(name, model, problem)
        kill_victim, hang_victim = _distinct_fault_pair(fleet, names)
        chaos_kill, chaos_hang = _Chaos(kill_victim), _Chaos(hang_victim)

        def arm():
            chaos_kill.kill()
            chaos_hang.hang()

        with fleet:
            futures, sync_errors = _storm(fleet, names, arm_chaos=arm)
            results, request_errors = [], []
            for name, omega, f in futures:
                try:
                    results.append((name, omega, f.result(timeout=60)))
                except Exception as exc:
                    request_errors.append((name, omega, exc))
            chaos_hang.restore()
            assert fleet.decommission_shard(kill_victim.id) >= 1
            fleet.check_health()
            assert hang_victim.healthy
            assert fleet.stats.healthy_shards == 3
            rng = np.random.default_rng(SEED + 99)
            for name in names:
                replicas = fleet.replicas_for(name)
                assert kill_victim.id not in replicas
                assert len(replicas) == 2
                assert all(name in _shard(fleet, sid).server.registry.names()
                           for sid in replicas)
                u = fleet.predict(name, rng.uniform(-3, 3, 4), timeout=30)
                assert u.shape == (16, 16)
        assert sync_errors == [] and request_errors == []
        assert len(results) == 48
        _assert_fields_match(served, results)
        s = fleet.stats
        assert s.lost == 0
        assert s.decommissions == 1 and s.reregistrations >= 1


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

    def test_kill_and_restore_mid_sequence_serves_every_predict(
            self, served):
        """Kill the primary, then restore it, between blocking
        ``predict`` calls: each call is one submit, the kill costs one
        ejection and one failover, and every call is served."""
        model, problem = served
        fleet = _fleet(shards=3, replicas=2)
        fleet.register_model("m", model, problem)
        victim = _shard(fleet, fleet.replicas_for("m")[0])
        chaos = _Chaos(victim)
        omegas = np.random.default_rng(SEED + 7).uniform(-1, 1, (30, 4))
        with fleet:
            for i, w in enumerate(omegas):
                if i == 5:
                    chaos.kill()
                if i == 20:
                    chaos.restore()
                fleet.predict("m", w, timeout=30)
        s = fleet.stats
        assert s.submitted == s.served == 30
        assert s.lost == 0
        assert s.failovers == s.shard_faults == 1

    def test_predict_surfaces_a_verdict_once(self, served):
        """A verdict is the caller's: ``predict`` raises it after one
        submit, and the next call is a fresh request."""
        model, problem = served
        fleet = _fleet(shards=1, replicas=1)
        fleet.register_model("m", model, problem)
        server = fleet.shards[0].server
        real = server.submit
        refusals = iter([ServerOverloaded("m", None, 9, 9)])

        def refuse_once(*args, **kwargs):
            exc = next(refusals, None)
            if exc is not None:
                raise exc
            return real(*args, **kwargs)

        server.submit = refuse_once
        omega = np.linspace(0.2, 0.8, 4)
        with fleet:
            with pytest.raises(ServerOverloaded):
                fleet.predict("m", omega, timeout=30)
            assert (fleet.stats.submitted, fleet.stats.rejected) == (1, 1)
            u = fleet.predict("m", omega, timeout=30)
        np.testing.assert_allclose(
            u, predict_batch(model, problem, omega)[0], atol=1e-12)
        s = fleet.stats
        assert (s.submitted, s.served, s.rejected, s.lost) == (2, 1, 1, 0)
        assert s.shard_faults == 0

    def test_predict_surfaces_an_expired_deadline_once(self, served):
        """A dead-on-arrival deadline through ``predict`` raises
        ``DeadlineExceeded`` to the caller: a request verdict, counted
        expired, that ejects no shard and is not re-submitted."""
        model, problem = served
        fleet = _fleet(shards=2, replicas=2)
        fleet.register_model("m", model, problem)
        omega = np.linspace(-0.5, 0.5, 4)
        with fleet:
            with pytest.raises(DeadlineExceeded):
                fleet.predict("m", omega, deadline_s=-1.0, timeout=30)
            assert (fleet.stats.submitted, fleet.stats.expired) == (1, 1)
            u = fleet.predict("m", omega, timeout=30)
        np.testing.assert_allclose(
            u, predict_batch(model, problem, omega)[0], atol=1e-12)
        s = fleet.stats
        assert (s.submitted, s.served, s.expired, s.lost) == (2, 1, 1, 0)
        assert s.shard_faults == s.failovers == 0
        assert s.healthy_shards == 2
