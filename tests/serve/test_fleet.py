"""Sharded fleet semantics: routing, registry fan-out, stats, cancel,
membership.

The fault-injection storms live in ``test_fleet_faults.py``; this file
pins the deterministic contracts — where writes land, where reads
route, that routed answers equal single-server answers, what a
cancelled fleet future counts, and what decommissioning a lost shard
keeps (including a hypothesis property over fleet shapes).
"""

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MGDiffNet, PoissonProblem2D
from repro.core.inference import predict_batch
from repro.serve import (
    FleetConfig, ModelRegistry, PredictionServer, RegistryError,
    ServerConfig, ShardedFleet, state_version,
)

RNG = np.random.default_rng(7)
SEED = 20260808


@pytest.fixture(scope="module")
def served():
    problem = PoissonProblem2D(16)
    model = MGDiffNet(ndim=2, base_filters=4, depth=1, rng=1)
    return model, problem


def _fleet(shards=3, replicas=2, **server_kw) -> ShardedFleet:
    kw = dict(max_batch=4, max_wait_ms=0.0, workers=1, cache_bytes=0)
    kw.update(server_kw)
    return ShardedFleet(FleetConfig(shards=shards, replicas=replicas,
                                    server=ServerConfig(**kw)))


class TestFleetConfig:
    @pytest.mark.parametrize("budget", [0, 0.0, -1, float("nan")],
                             ids=["0", "0.0", "-1", "nan"])
    def test_non_positive_shard_timeout_rejected(self, budget):
        # A budget <= 0 would eject every shard as hung on its first wait.
        with pytest.raises(ValueError, match="shard_timeout_s must be > 0"):
            FleetConfig(shard_timeout_s=budget)

    @pytest.mark.parametrize("budget", [None, 1e-3, 5])
    def test_positive_or_no_shard_timeout_accepted(self, budget):
        assert FleetConfig(shard_timeout_s=budget).shard_timeout_s == budget


class TestRegistryFanOut:
    def test_register_lands_on_exactly_r_replicas(self, served):
        model, problem = served
        fleet = _fleet(shards=4, replicas=2)
        fleet.register_model("m", model, problem)
        holders = [s.id for s in fleet.shards
                   if "m" in s.server.registry.names()]
        assert sorted(holders) == sorted(fleet.replicas_for("m"))
        assert len(holders) == 2

    def test_replica_set_matches_ring_over_name_and_version(self, served):
        model, problem = served
        fleet = _fleet(shards=4, replicas=2)
        fleet.register_model("m", model, problem)
        expected = fleet._ring.lookup(("m", state_version(model)), n=2)
        assert fleet.replicas_for("m") == expected

    def test_routing_is_stable_across_fleets(self, served):
        """Two fleets with the same topology agree on every route — the
        consistent-hash determinism the multi-host story needs."""
        model, problem = served
        a, b = _fleet(shards=4), _fleet(shards=4)
        for f in (a, b):
            f.register_model("m", model, problem)
        assert a.replicas_for("m") == b.replicas_for("m")

    def test_unknown_model_raises_keyed_registry_error(self, served):
        fleet = _fleet()
        with pytest.raises(RegistryError, match="fleet"):
            fleet.submit("ghost", np.zeros(4))

    def test_models_spread_across_shards(self, served):
        """Many models occupy many shards — the registry is sharded,
        not mirrored."""
        model, problem = served
        fleet = _fleet(shards=4, replicas=1)
        for i in range(12):
            fleet.register_model(f"m{i}", model, problem)
        owners = {s.id for s in fleet.shards if s.server.registry.names()}
        assert len(owners) >= 3

    def test_reregister_updates_catalog_version(self, served):
        model, problem = served
        fleet = _fleet(shards=4, replicas=2)
        fleet.register_model("m", model, problem)
        v1 = fleet._catalog["m"]
        other = MGDiffNet(ndim=2, base_filters=4, depth=1, rng=99)
        fleet.register_model("m", other, problem)
        v2 = fleet._catalog["m"]
        assert v1 != v2
        # Every shard still holding "m" holds the *new* version.
        for shard in fleet.shards:
            if "m" in shard.server.registry.names():
                assert shard.server.registry.get("m").version == v2


class TestRoutedServing:
    def test_predict_matches_single_server(self, served):
        model, problem = served
        fleet = _fleet()
        fleet.register_model("m", model, problem)
        omegas = RNG.uniform(-3, 3, (6, 4))
        with fleet:
            got = np.stack([fleet.predict("m", w, timeout=30)
                            for w in omegas])
        ref = predict_batch(model, problem, omegas)
        np.testing.assert_allclose(got, ref, atol=1e-5)

    def test_sync_frontend_without_start(self, served):
        model, problem = served
        fleet = _fleet()
        fleet.register_model("m", model, problem)
        omega = RNG.uniform(-3, 3, 4)
        u = fleet.predict("m", omega)
        np.testing.assert_allclose(u, predict_batch(model, problem, omega)[0],
                                   atol=1e-5)

    def test_load_spreads_over_shards(self, served):
        """With R=1 and several models, requests land on several
        shards — the request load is partitioned, not funneled."""
        model, problem = served
        fleet = _fleet(shards=4, replicas=1)
        names = [f"m{i}" for i in range(8)]
        for name in names:
            fleet.register_model(name, model, problem)
        omega = RNG.uniform(-3, 3, 4)
        with fleet:
            for name in names:
                fleet.predict(name, omega, timeout=30)
        busy = [s.id for s in fleet.shards if s.server.stats.requests > 0]
        assert len(busy) >= 3

    def test_stats_merge_and_conservation(self, served):
        model, problem = served
        fleet = _fleet()
        fleet.register_model("m", model, problem)
        omegas = RNG.uniform(-3, 3, (8, 4))
        with fleet:
            futures = [fleet.submit("m", w) for w in omegas]
            for f in futures:
                f.result(timeout=30)
        s = fleet.stats
        assert s.submitted == 8
        assert s.served == 8
        assert s.lost == 0
        assert s.requests == 8          # summed per-shard accepted
        assert sum(d["requests"] for d in s.per_shard.values()) == 8

    def test_every_shard_owns_a_memory_cache(self, served):
        model, problem = served
        fleet = _fleet(shards=3, replicas=1, cache_bytes=1 << 20)
        fleet.register_model("m", model, problem)
        assert len({id(s.server.cache) for s in fleet.shards}) == 3
        assert all(s.server.cache.max_bytes == 1 << 20 for s in fleet.shards)
        w = RNG.uniform(-3, 3, 4)
        np.testing.assert_array_equal(fleet.predict("m", w),
                                      fleet.predict("m", w))
        # The repeat is a hit on the key's home shard and nowhere else.
        [home] = fleet.replicas_for("m")
        assert {s.id: s.server.cache.stats.hits for s in fleet.shards} == {
            s.id: int(s.id == home) for s in fleet.shards}
        assert fleet.stats.cache_hits == 1

    @pytest.mark.parametrize("omega,match", [
        ([0.0, 0.0, 0.0], "expects omega"),
        ([np.nan, 0.0, 0.0, 0.0], "finite omega"),
        ([0.0, np.inf, 0.0, 0.0], "finite omega"),
        ([0.0, 0.0, 0.0, -np.inf], "finite omega"),
    ], ids=["arity", "nan", "inf", "-inf"])
    def test_wrong_arity_omega_is_request_error_not_fault(self, served, omega,
                                                          match):
        model, problem = served
        fleet = _fleet()
        fleet.register_model("m", model, problem)
        with pytest.raises(ValueError, match=match):
            fleet.submit("m", np.array(omega))
        s = fleet.stats
        assert s.errors == 1
        assert s.shard_faults == 0
        assert s.healthy_shards == 3
        assert s.lost == 0



    def test_reads_walk_the_replica_set_in_ring_order(self, served):
        """One dispatch order: every attempt goes to the ring's next
        replica, primary first, whatever happened to earlier reads."""
        model, problem = served
        fleet = _fleet(shards=4, replicas=3)
        fleet.register_model("m", model, problem)
        order = fleet.replicas_for("m")
        tried = []
        for shard in fleet.shards:
            real = shard.server.submit

            def submit(*args, _id=shard.id, _real=real, **kwargs):
                tried.append(_id)
                if _id != order[-1]:
                    raise RuntimeError("scripted fault")
                return _real(*args, **kwargs)

            shard.server.submit = submit
        fleet.predict("m", RNG.uniform(-3, 3, 4))
        assert tried == order
        # The faulted shards are ejected, so the next read goes straight
        # to the last healthy replica.
        tried.clear()
        fleet.predict("m", RNG.uniform(-3, 3, 4))
        assert tried == order[-1:]
        s = fleet.stats
        assert (s.served, s.failovers, s.shard_faults, s.lost) == (2, 2, 2, 0)

    def test_submit_starts_no_thread(self, served):
        """A read runs on the caller's thread and the shards' workers:
        the fleet itself starts no thread, however many reads it
        routes."""
        model, problem = served
        fleet = _fleet()
        fleet.register_model("m", model, problem)
        with fleet:
            fleet.predict("m", RNG.uniform(-3, 3, 4), timeout=30)
            before = set(threading.enumerate())
            futures = [fleet.submit("m", w)
                       for w in RNG.uniform(-3, 3, (8, 4))]
            for f in futures:
                f.result(timeout=30)
            assert set(threading.enumerate()) - before == set()


class TestCancellation:
    def test_cancelled_fleet_future_counts_cancelled(self, served):
        """A caller cancels its pending fleet future while the shard is
        still computing: the late answer is counted ``cancelled``, never
        ``served``, the books balance, and the fleet keeps serving."""
        import threading

        model, problem = served
        fleet = _fleet(shards=2, replicas=1)
        fleet.register_model("m", model, problem)
        primary = fleet._by_id[fleet.replicas_for("m")[0]]
        entered = threading.Event()
        release = threading.Event()
        forward = primary.server._forward

        def held(entry, omegas, resolution, trace):
            if not entered.is_set():
                entered.set()
                assert release.wait(timeout=30)
            return forward(entry, omegas, resolution, trace=trace)

        primary.server._forward = held
        omega = RNG.uniform(-3, 3, 4)
        with fleet:
            doomed = fleet.submit("m", np.full(4, 5.0))
            assert entered.wait(timeout=30)
            assert doomed.cancel()
            release.set()
            u = fleet.predict("m", omega, timeout=30)
        np.testing.assert_allclose(u, predict_batch(model, problem, omega)[0],
                                   atol=1e-5)
        s = fleet.stats
        assert s.submitted == 2
        assert s.cancelled == 1 and s.served == 1
        assert s.lost == 0
        assert primary.healthy       # a cancelled read ejects nobody

    def test_cancel_during_failover_counts_cancelled_once(self, served):
        """The caller cancels while the primary is computing; the primary
        then faults, and the failover's answer from the replica is the
        cancelled delivery — one term, the shard still ejected."""
        import threading

        model, problem = served
        fleet = _fleet(shards=2, replicas=2)
        fleet.register_model("m", model, problem)
        primary = fleet._by_id[fleet.replicas_for("m")[0]]
        entered = threading.Event()
        release = threading.Event()

        def dying(entry, omegas, resolution, trace):
            entered.set()
            assert release.wait(timeout=30)
            raise RuntimeError("primary died mid-forward")

        primary.server._forward = dying
        with fleet:
            doomed = fleet.submit("m", np.full(4, 5.0))
            assert entered.wait(timeout=30)
            assert doomed.cancel()
            release.set()
            deadline = time.monotonic() + 30
            while fleet.stats.cancelled == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
        s = fleet.stats
        assert (s.submitted, s.cancelled, s.served) == (1, 1, 0)
        assert s.failovers == 1 and s.shard_faults == 1
        assert not primary.healthy
        assert s.lost == 0


class TestQueueDepth:
    def test_fleet_stats_surface_the_gauge(self, served):
        model, problem = served
        fleet = ShardedFleet(FleetConfig(shards=2, replicas=1))
        fleet.register_model("m", model, problem)
        stats = fleet.stats
        for row in stats.per_shard.values():
            assert row["queue_depth"] == 0


# --------------------------------------------------------------------- #
# Membership: decommissioning a permanently lost shard
# --------------------------------------------------------------------- #
class TestFleetMembership:
    def test_cannot_remove_the_last_shard(self, served):
        model, problem = served
        fleet = _fleet(shards=1, replicas=1)
        fleet.register_model("m", model, problem)
        with pytest.raises(ValueError):
            fleet.decommission_shard(fleet.shards[0].id)
        assert len(fleet.shards) == 1

    def test_ejection_keeps_the_shard_on_the_ring(self, served):
        """Only a decommission changes membership: an ejected shard
        keeps its ring points and reads fail over past it."""
        model, problem = served
        fleet = _fleet(shards=3, replicas=2)
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
        fleet = _fleet(shards=3, replicas=2)
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
        model, problem = served
        fleet = _fleet(shards=3, replicas=2)
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
        fleet = _fleet(shards=2, replicas=2)
        fleet.register_model("m", model, problem)
        assert fleet.decommission_shard("shard-99") == 0
        s = fleet.stats
        assert s.shards == 2 and s.decommissions == 0

    def test_decommission_rereplicates_lost_keys(self, served):
        model, problem = served
        fleet = _fleet(shards=3, replicas=2)
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
    """The membership path ``decommission_shard`` drives, over fleet
    shapes.

    The fleets stay unstarted, so every read runs inline on the test's
    thread: a property example costs a few tiny forwards, no threads.
    """

    @settings(max_examples=30, deadline=None)
    @given(shape=FLEET_SHAPES)
    def test_decommission_keeps_every_surviving_key_replicated(
            self, served, shape):
        n_shards, replicas, n_models, victim = shape
        model, problem = served
        fleet = _fleet(shards=n_shards, replicas=replicas)
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
        fleet = _fleet(shards=shards, replicas=replicas)
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


def test_every_read_is_submit_or_predict():
    """One request path: the stream front-ends are gone, and hang
    failover is the fleet's watchdog, not a drain helper a caller must
    know to use."""
    assert not hasattr(PredictionServer, "submit_stream")
    assert not hasattr(ShardedFleet, "stream")
    assert not hasattr(ShardedFleet, "hang_failover")
    assert not hasattr(ShardedFleet, "await_result")
    assert not hasattr(ShardedFleet, "_hang_failover")
