"""Concurrency stress: barrier-released thread storms against the server.

The server's claims — dedup, cache fill-before-inflight-drop, bounded
queue, executor hand-off — are all about what happens when many clients
arrive *at once*.  These tests release N threads from a barrier onto
overlapping request sets and then check the accounting identities that
only hold if every hand-off is race-free:

    requests == cache.hits + dedup_hits + batched_requests   (errors 0)

i.e. every submitted request is answered exactly once, by exactly one of
the three paths, and nothing is computed twice or leaked in flight.

A deadlock anywhere in here would otherwise stall the suite silently;
``faulthandler.dump_traceback_later`` dumps every thread's stack and
kills the process instead — a diagnosable failure, not a sleep that got
unlucky.
"""

import faulthandler
import sys
import threading

import numpy as np
import pytest

from repro import MGDiffNet, PoissonProblem2D
from repro.core.inference import predict_batch
from repro.serve import (
    FleetConfig, FleetUnavailable, ModelRegistry, PredictionServer,
    ServerConfig, ServerOverloaded, ShardedFleet,
)

RNG = np.random.default_rng(47)

HANG_DUMP_S = 120.0


@pytest.fixture(autouse=True)
def hang_guard():
    """Dump all thread stacks and abort if a stress test wedges."""
    faulthandler.dump_traceback_later(HANG_DUMP_S, exit=True)
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture(scope="module")
def served():
    problem = PoissonProblem2D(16)
    model = MGDiffNet(ndim=2, base_filters=4, depth=1, rng=1)
    registry = ModelRegistry()
    registry.register_model("m", model, problem)
    return model, problem, registry


def _storm(server, n_threads, per_thread_omegas):
    """Release ``n_threads`` from a barrier; each submits its ω rows and
    gathers results.  Returns {thread_index: [(omega, field), ...]}."""
    barrier = threading.Barrier(n_threads)
    results: dict[int, list] = {}
    errors: list[BaseException] = []

    def client(index: int) -> None:
        try:
            barrier.wait(timeout=30)
            futures = [(w, server.submit("m", w))
                       for w in per_thread_omegas[index]]
            results[index] = [(w, f.result(timeout=60)) for w, f in futures]
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(i,), daemon=True)
               for i in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=90)
        assert not t.is_alive(), "client thread wedged"
    assert not errors, errors
    return results


class TestThreadStorm:
    N_THREADS = 8
    N_SHARED = 6
    N_DISTINCT = 6

    def test_identical_and_distinct_requests_race_free(self, served):
        model, problem, registry = served
        shared = RNG.uniform(-3, 3, size=(self.N_SHARED, 4))
        distinct = RNG.uniform(-3, 3,
                               size=(self.N_THREADS, self.N_DISTINCT, 4))
        per_thread = [np.concatenate([shared, distinct[i]])
                      for i in range(self.N_THREADS)]
        server = PredictionServer(registry, ServerConfig(
            max_batch=4, max_wait_ms=1.0, workers=2))
        with server:
            results = _storm(server, self.N_THREADS, per_thread)

        # Correctness: every thread got the right field for its ω.
        for rows in results.values():
            got = np.stack([u for _, u in rows])
            ref = predict_batch(model, problem,
                                np.stack([w for w, _ in rows]))
            np.testing.assert_allclose(got, ref, atol=1e-6)

        s, hits = server.stats, server.cache.stats.hits
        total = self.N_THREADS * (self.N_SHARED + self.N_DISTINCT)
        assert s.requests == total
        assert s.errors == 0
        # Conservation: each request answered by exactly one path.
        assert hits + s.dedup_hits + s.batched_requests == total
        # Each shared ω computed exactly once across all 8 threads (the
        # cache is filled *before* the in-flight entry drops, so a twin
        # hits one of the two — never neither, never a second forward);
        # each distinct ω computed exactly once trivially.
        n_unique = self.N_SHARED + self.N_THREADS * self.N_DISTINCT
        assert s.batched_requests == n_unique
        assert hits + s.dedup_hits == total - n_unique
        # No future leaks: nothing left in flight, nothing unresolved.
        assert not server._inflight
        assert server._queue.qsize() == 0

    def test_storm_against_bounded_queue_sheds_not_wedges(self, served):
        """Backpressure under a storm must reject cleanly — every client
        either gets a field or a keyed rejection, and the books balance."""
        model, problem, registry = served
        n_threads, per = 6, 8
        omegas = RNG.uniform(-3, 3, size=(n_threads, per, 4))
        server = PredictionServer(registry, ServerConfig(
            max_batch=2, max_wait_ms=0.5, workers=1, cache_bytes=0,
            max_pending=4))
        barrier = threading.Barrier(n_threads)
        outcomes: list[str] = []
        lock = threading.Lock()
        failures: list[BaseException] = []

        def client(index: int) -> None:
            try:
                barrier.wait(timeout=30)
                for w in omegas[index]:
                    try:
                        u = server.submit("m", w).result(timeout=60)
                        np.testing.assert_allclose(
                            u, predict_batch(model, problem, w)[0], atol=1e-6)
                        with lock:
                            outcomes.append("served")
                    except ServerOverloaded:
                        with lock:
                            outcomes.append("rejected")
            except BaseException as exc:  # noqa: BLE001
                failures.append(exc)

        threads = [threading.Thread(target=client, args=(i,), daemon=True)
                   for i in range(n_threads)]
        with server:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=90)
                assert not t.is_alive(), "client thread wedged"
        assert not failures, failures
        s = server.stats
        assert len(outcomes) == n_threads * per
        assert outcomes.count("rejected") == s.rejected
        assert outcomes.count("served") == n_threads * per - s.rejected
        assert s.errors == 0
        assert not server._inflight


class TestProcessExecutorStorm:
    def test_no_deadlock_with_process_pool(self, served):
        """Thread clients + worker threads + a fork process pool: the
        layered hand-off must neither deadlock nor duplicate compute."""
        model, problem, registry = served
        n_threads = 4
        shared = RNG.uniform(-3, 3, size=(2, 4))
        per_thread = [
            np.concatenate([shared, RNG.uniform(-3, 3, size=(2, 4))])
            for _ in range(n_threads)]
        server = PredictionServer(registry, ServerConfig(
            max_batch=4, max_wait_ms=2.0, workers=2, executor="process"))
        try:
            with server:
                results = _storm(server, n_threads, per_thread)
        finally:
            server.close()
        for rows in results.values():
            got = np.stack([u for _, u in rows])
            ref = predict_batch(model, problem,
                                np.stack([w for w, _ in rows]))
            np.testing.assert_allclose(got, ref, atol=1e-6)
        s, hits = server.stats, server.cache.stats.hits
        total = n_threads * 4
        assert s.errors == 0
        assert hits + s.dedup_hits + s.batched_requests == total
        assert not server._inflight
        # close() released the pool; the next use would rebuild lazily.
        assert server._executor is None


class TestWatchdogStorm:
    def test_watchdog_racing_every_answer_loses_nothing(self, served):
        """A 2 ms hang budget against ~ms forwards: the fleet's watchdog
        expires attempts while shard workers answer them, under a 1 µs
        switch interval and more clients than cores.  Every future
        resolves (served, or unavailable once every replica has been
        expired on it), every served field is its own ω's, and the
        ledger loses nothing."""
        model, problem, _ = served
        fleet = ShardedFleet(FleetConfig(
            shards=3, replicas=2, shard_timeout_s=0.002,
            server=ServerConfig(max_batch=2, max_wait_ms=0.0, workers=1,
                                cache_bytes=0)))
        fleet.register_model("m", model, problem)
        omegas = RNG.uniform(-3, 3, (6, 8, 4))
        barrier = threading.Barrier(len(omegas))
        served_rows, verdicts, errors = [], [], []

        def client(rows) -> None:
            try:
                barrier.wait(timeout=30)
                for w, f in [(w, fleet.submit("m", w)) for w in rows]:
                    try:
                        served_rows.append((w, f.result(timeout=60)))
                    except FleetUnavailable as exc:
                        verdicts.append(exc)
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with fleet:
                threads = [threading.Thread(target=client, args=(rows,),
                                            daemon=True) for rows in omegas]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=90)
                    assert not t.is_alive(), "client thread wedged"
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors
        s = fleet.stats
        assert s.submitted == 48 and s.lost == 0
        assert (s.served, s.unavailable) == (len(served_rows), len(verdicts))
        assert len(served_rows) + len(verdicts) == 48
        for w, u in served_rows:
            np.testing.assert_allclose(
                u, predict_batch(model, problem, w)[0], atol=1e-5)
