"""Sharded fleet semantics: routing, registry fan-out, stats, cancel.

The fault-injection storms live in ``test_fleet_faults.py``; this file
pins the deterministic contracts — where writes land, where reads
route, that routed answers equal single-server answers, and what a
cancelled fleet future counts.
"""

import threading
import time

import numpy as np
import pytest

from repro import MGDiffNet, PoissonProblem2D
from repro.core.inference import predict_batch
from repro.serve import (
    FleetConfig, ModelRegistry, PredictionServer, RegistryError,
    ServerConfig, ShardedFleet, state_version,
)

RNG = np.random.default_rng(7)


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

    def test_unregister_fans_out_everywhere(self, served):
        model, problem = served
        fleet = _fleet()
        fleet.register_model("m", model, problem)
        fleet.unregister("m")
        assert fleet.names() == ()
        assert all("m" not in s.server.registry.names()
                   for s in fleet.shards)
        with pytest.raises(RegistryError):
            fleet.get("m")

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

    def test_predict_many_gathers(self, served):
        model, problem = served
        fleet = _fleet()
        fleet.register_model("m", model, problem)
        omegas = RNG.uniform(-3, 3, (5, 4))
        with fleet:
            got = fleet.predict_many("m", omegas, timeout=30)
        np.testing.assert_allclose(got, predict_batch(model, problem, omegas),
                                   atol=1e-5)

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
        # Every request is two hops: ω out, field back.
        assert s.send_calls == 16
        assert s.send_bytes > 0

    def test_wrong_arity_omega_is_request_error_not_fault(self, served):
        model, problem = served
        fleet = _fleet()
        fleet.register_model("m", model, problem)
        with pytest.raises(ValueError, match="expects omega"):
            fleet.submit("m", np.zeros(3))
        s = fleet.stats
        assert s.errors == 1
        assert s.shard_faults == 0
        assert s.healthy_shards == 3
        assert s.lost == 0

    def test_virtual_clock_charged_with_time_model(self, served):
        model, problem = served
        fleet = ShardedFleet(FleetConfig(
            shards=2, replicas=1,
            server=ServerConfig(max_batch=2, max_wait_ms=0, cache_bytes=0),
            time_model=lambda nbytes, world: nbytes * 1e-9 + 1e-6))
        fleet.register_model("m", model, problem)
        fleet.predict("m", RNG.uniform(-3, 3, 4))
        assert fleet.stats.virtual_comm_seconds > 0

    def test_per_shard_spill_dirs_are_disjoint(self, served, tmp_path):
        model, problem = served
        fleet = ShardedFleet(FleetConfig(
            shards=3, replicas=1,
            server=ServerConfig(max_batch=2, max_wait_ms=0,
                                cache_dir=str(tmp_path / "spill"))))
        fleet.register_model("m", model, problem)
        dirs = {s.server.config.cache_dir for s in fleet.shards}
        assert len(dirs) == 3
        for shard in fleet.shards:
            assert shard.id in shard.server.config.cache_dir


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

        def held(entry, omegas, resolution):
            if not entered.is_set():
                entered.set()
                assert release.wait(timeout=30)
            return forward(entry, omegas, resolution)

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

        def dying(entry, omegas, resolution):
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


def test_every_read_is_submit_or_predict():
    """One request path: the stream front-ends are gone and the fleet's
    hang failover is private to ``await_result``."""
    assert not hasattr(PredictionServer, "submit_stream")
    assert not hasattr(ShardedFleet, "stream")
    assert not hasattr(ShardedFleet, "hang_failover")
    assert hasattr(ShardedFleet, "await_result")
