"""Micro-batching policy and the prediction server front-ends."""

import queue
import sys
import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest

from repro import MGDiffNet, PoissonProblem2D
from repro.core.inference import predict_batch
from repro.serve import (
    MicroBatcher, ModelRegistry, PredictRequest, PredictionServer,
    RequestQueue, ServerConfig,
)

RNG = np.random.default_rng(11)


def _request(name="m", resolution=16, omega=None):
    omega = np.zeros(4) if omega is None else omega
    return PredictRequest(model_name=name, omega=omega,
                         resolution=resolution, future=Future())


@pytest.fixture(scope="module")
def served():
    problem = PoissonProblem2D(16)
    model = MGDiffNet(ndim=2, base_filters=4, depth=1, rng=1)
    registry = ModelRegistry()
    registry.register_model("m", model, problem)
    return model, problem, registry


class TestMicroBatcher:
    def test_coalesces_up_to_max_batch(self):
        q = queue.Queue()
        for _ in range(5):
            q.put(_request())
        batch = MicroBatcher(max_batch=3, max_wait_ms=50).collect(q)
        assert len(batch) == 3
        assert q.qsize() == 2

    def test_respects_deadline(self):
        q = queue.Queue()
        q.put(_request())
        t0 = time.perf_counter()
        batch = MicroBatcher(max_batch=8, max_wait_ms=20).collect(q)
        waited = time.perf_counter() - t0
        assert len(batch) == 1
        assert waited < 0.5

    def test_zero_wait_serves_singletons(self):
        q = queue.Queue()
        q.put(_request())
        q.put(_request())
        batch = MicroBatcher(max_batch=8, max_wait_ms=0).collect(q)
        # Deadline already passed: drains what is queued, never waits.
        assert 1 <= len(batch) <= 2

    def test_stop_returns_empty(self):
        stop = threading.Event()
        stop.set()
        batch = MicroBatcher(max_batch=4, max_wait_ms=1).collect(
            queue.Queue(), stop=stop, poll_s=0.01)
        assert batch == []

    def test_grouping_splits_incompatible_requests(self):
        batch = [_request(resolution=16), _request(resolution=32),
                 _request(resolution=16), _request(name="other")]
        groups = MicroBatcher.group_compatible(batch)
        assert [len(g) for g in groups] == [2, 1, 1]
        assert groups[0][0] is batch[0] and groups[0][1] is batch[2]

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            MicroBatcher(max_batch=0)
        with pytest.raises(ValueError):
            MicroBatcher(max_wait_ms=-1)
        with pytest.raises(ValueError):
            MicroBatcher(max_wait_ms=float("nan"))


class TestServerConfig:
    """A setting no forward could run with fails at construction, not as
    an error counted on every request."""

    @pytest.mark.parametrize("field,value", [
        ("executor", "bogus"), ("halo", 3), ("halo", -2), ("tile", 0),
        ("workers", 0), ("cache_bytes", -5), ("cache_bytes", float("nan")),
        ("tile_threshold_voxels", -1), ("max_pending", -1),
    ])
    def test_rejected_at_construction(self, field, value):
        with pytest.raises(ValueError, match=field):
            ServerConfig(**{field: value})

    def test_edge_values_construct(self):
        ServerConfig(cache_bytes=0, max_wait_ms=0.0, halo=0, tile=1,
                     max_pending=0, tile_threshold_voxels=0,
                     default_deadline_s=-1.0, executor="process")


class TestSyncFrontend:
    def test_matches_predict_batch(self, served):
        model, problem, registry = served
        server = PredictionServer(registry)
        omega = RNG.uniform(-3, 3, 4)
        ref = predict_batch(model, problem, omega)[0]
        np.testing.assert_allclose(server.predict("m", omega), ref,
                                   atol=1e-6)

    def test_cache_hit_on_repeat(self, served):
        *_, registry = served
        server = PredictionServer(registry)
        omega = RNG.uniform(-3, 3, 4)
        first = server.predict("m", omega)
        again = server.predict("m", omega)
        np.testing.assert_array_equal(first, again)
        assert server.stats.cache_hits == 1
        assert server.cache.stats.hits == 1

    def test_a_restarted_server_starts_cold(self, served):
        # The cache is memory only: a new server over the same registry
        # and config recomputes what the old one cached.
        *_, registry = served
        omega = RNG.uniform(-3, 3, 4)
        first = PredictionServer(registry)
        first.predict("m", omega)
        first.close()
        fresh = PredictionServer(registry)
        np.testing.assert_array_equal(fresh.predict("m", omega),
                                      first.predict("m", omega))
        assert fresh.cache.stats.hits == 0
        assert fresh.cache.stats.misses == 1

    def test_quantized_omegas_share_cache_entry(self, served):
        *_, registry = served
        server = PredictionServer(registry)
        omega = RNG.uniform(-3, 3, 4)
        server.predict("m", omega)
        server.predict("m", omega + 1e-8)
        assert server.stats.cache_hits == 1

    @pytest.mark.parametrize("omega,match", [
        ([0.0, 0.0, 0.0], "length 4"),
        ([np.nan, 0.0, 0.0, 0.0], "finite"),
        ([np.inf, 0.0, 0.0, 0.0], "finite"),
        ([0.0, 0.0, -np.inf, 0.0], "finite"),
    ], ids=["arity", "nan", "inf", "-inf"])
    def test_wrong_arity_omega_rejected_at_submit(self, served, omega, match):
        # Must fail fast in submit: inside a worker a wrong arity would
        # poison the fused np.stack of its whole micro-batch group, and a
        # NaN key never equals itself, so every call would miss the cache
        # and cache one more non-finite field.
        *_, registry = served
        server = PredictionServer(registry)
        for _ in range(3):
            with pytest.raises(ValueError, match=match):
                server.submit("m", np.array(omega))
        assert server.stats.requests == 0
        assert len(server.cache) == 0

    def test_served_fields_read_only_on_miss_and_hit(self, served):
        *_, registry = served
        server = PredictionServer(registry)
        omega = RNG.uniform(-3, 3, 4)
        miss = server.predict("m", omega)
        hit = server.predict("m", omega)
        for u in (miss, hit):
            with pytest.raises(ValueError):
                u[0, 0] = 1.0

    def test_unknown_model_raises(self, served):
        *_, registry = served
        from repro.serve import RegistryError

        with pytest.raises(RegistryError, match="no model named"):
            PredictionServer(registry).predict("nope", np.zeros(4))


class TestWorkerFrontend:
    def test_coalesced_results_match_individual(self, served):
        """Micro-batch coalescing determinism: fused forward == per-call."""
        model, problem, registry = served
        omegas = RNG.uniform(-3, 3, size=(12, 4))
        ref = predict_batch(model, problem, omegas)
        server = PredictionServer(registry, ServerConfig(
            max_batch=6, max_wait_ms=50, workers=1, cache_bytes=0))
        with server:
            futures = [server.submit("m", w) for w in omegas]
            got = np.stack([f.result(timeout=30) for f in futures])
        np.testing.assert_allclose(got, ref, atol=1e-6)
        assert server.stats.batches < len(omegas)  # coalescing happened
        assert server.stats.mean_batch_size > 1.0

    def test_non_finite_omega_leaves_its_batch_mates_served(self, served):
        """A NaN ω between two good ones in one coalescing window is
        refused at submit; the fused forward of the others is intact."""
        model, problem, registry = served
        omegas = RNG.uniform(-3, 3, size=(2, 4))
        ref = predict_batch(model, problem, omegas)
        server = PredictionServer(registry, ServerConfig(
            max_batch=4, max_wait_ms=50, workers=1, cache_bytes=0))
        with server:
            first = server.submit("m", omegas[0])
            with pytest.raises(ValueError, match="finite"):
                server.submit("m", np.array([0.0, np.nan, 0.0, 0.0]))
            second = server.submit("m", omegas[1])
            got = np.stack([first.result(timeout=30),
                            second.result(timeout=30)])
        np.testing.assert_allclose(got, ref, atol=1e-6)
        assert np.isfinite(got).all()
        assert server.stats.requests == 2 and server.stats.errors == 0

    def test_predict_many_roundtrip(self, served):
        model, problem, registry = served
        omegas = RNG.uniform(-3, 3, size=(5, 4))
        ref = predict_batch(model, problem, omegas)
        server = PredictionServer(registry, ServerConfig(
            max_batch=4, max_wait_ms=10, workers=2))
        with server:
            got = server.predict_many("m", omegas, timeout=30)
        np.testing.assert_allclose(got, ref, atol=1e-6)

    def test_stop_drains_pending_requests(self, served):
        *_, registry = served
        server = PredictionServer(registry, ServerConfig(
            max_batch=4, max_wait_ms=5, workers=1, cache_bytes=0))
        server.start()
        futures = [server.submit("m", RNG.uniform(-3, 3, 4))
                   for _ in range(6)]
        server.stop(drain=True)
        assert all(f.done() for f in futures)
        assert not server.running

    def test_submit_error_propagates_via_future(self, served):
        *_, registry = served
        server = PredictionServer(registry, ServerConfig(
            max_batch=2, max_wait_ms=5, workers=1))
        with server:
            future = server.submit("m", np.zeros(4), resolution=7)  # odd: invalid
            with pytest.raises(ValueError):
                future.result(timeout=30)
        assert server.stats.errors == 1

    def test_in_flight_dedup_attaches_to_twin(self, served):
        """Identical requests queued behind a slow twin share one future
        and one compute."""
        *_, registry = served
        server = PredictionServer(registry, ServerConfig(
            max_batch=1, max_wait_ms=0, workers=1, cache_bytes=0))
        forward = server._forward
        started = threading.Event()
        release = threading.Event()

        def slow_forward(entry, omegas, resolution, trace):
            started.set()
            release.wait(timeout=30)
            return forward(entry, omegas, resolution, trace=trace)

        server._forward = slow_forward
        omega = RNG.uniform(-3, 3, 4)
        try:
            with server:
                first = server.submit("m", omega)
                assert started.wait(timeout=30)
                twins = [server.submit("m", omega) for _ in range(3)]
                release.set()
                results = [f.result(timeout=30) for f in [first] + twins]
        finally:
            release.set()
        assert all(f is first for f in twins)
        assert server.stats.dedup_hits == 3
        for u in results[1:]:
            np.testing.assert_array_equal(u, results[0])
        # Exactly one forward computed all four requests.
        assert server.stats.batched_requests == 1
        assert not server._inflight

    def test_distinct_omegas_not_deduped(self, served):
        *_, registry = served
        server = PredictionServer(registry, ServerConfig(cache_bytes=0))
        a = server.submit("m", RNG.uniform(-3, 3, 4))
        b = server.submit("m", RNG.uniform(-3, 3, 4))
        assert a is not b
        assert server.stats.dedup_hits == 0

    def test_inflight_cleared_after_error(self, served):
        *_, registry = served
        server = PredictionServer(registry, ServerConfig(cache_bytes=0))
        with pytest.raises(ValueError):
            server.predict("m", np.zeros(4), resolution=7)
        assert not server._inflight
        # A retry is a fresh computation, not an attach to a dead future.
        with pytest.raises(ValueError):
            server.predict("m", np.zeros(4), resolution=7)
        assert server.stats.dedup_hits == 0
        assert server.stats.errors == 2

    def test_undrained_stop_releases_inflight_keys(self, served):
        """A request abandoned by stop(drain=False) must not leave its
        dedup key behind — a later identical submit would attach to a
        future no worker will ever resolve."""
        model, problem, registry = served
        server = PredictionServer(registry, ServerConfig(
            max_batch=1, max_wait_ms=0, workers=1, cache_bytes=0))
        omega = RNG.uniform(-3, 3, 4)
        key = server._key(registry.get("m"), omega, 16)
        server.start()
        server._inflight[key] = Future()  # an abandoned queued twin
        server.stop(drain=False)
        assert key not in server._inflight
        # The retry computes fresh on the sync path instead of hanging.
        u = server.predict("m", omega)
        ref = predict_batch(model, problem, omega)[0]
        np.testing.assert_allclose(u, ref, atol=1e-6)
        server.close()

    def test_quantized_twins_dedup(self, served):
        """Dedup uses the cache key, so ω within the quantization step
        attach to each other exactly like cache hits would."""
        *_, registry = served
        server = PredictionServer(registry, ServerConfig(
            max_batch=1, max_wait_ms=0, workers=1, cache_bytes=0))
        release = threading.Event()
        forward = server._forward

        def slow_forward(entry, omegas, resolution, trace):
            release.wait(timeout=30)
            return forward(entry, omegas, resolution, trace=trace)

        server._forward = slow_forward
        omega = RNG.uniform(-3, 3, 4)
        try:
            with server:
                first = server.submit("m", omega)
                twin = server.submit("m", omega + 1e-8)
                release.set()
                first.result(timeout=30)
        finally:
            release.set()
        assert twin is first
        assert server.stats.dedup_hits == 1

    def test_tiled_path_engages_above_threshold(self, served):
        model, problem, registry = served
        omegas = RNG.uniform(-3, 3, size=(3, 4))
        ref = predict_batch(model, problem, omegas)
        server = PredictionServer(registry, ServerConfig(
            tile_threshold_voxels=64, tile=8))  # 16^2 = 256 > 64
        got = server.predict_many("m", omegas)
        np.testing.assert_allclose(got, ref, atol=1e-5)
        assert server.stats.tiled_forwards >= 1


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
# Adaptive hold: held only while the mean arrival gap is within it
# --------------------------------------------------------------------- #
class TestAdaptiveHold:
    """The gap estimate is driven by explicit ``enqueued_at`` stamps, so
    a "stream" costs no sleeps; only the final lone ``collect`` is timed."""

    @staticmethod
    def _stamped(t, expires_in=None):
        return PredictRequest(
            model_name="m", omega=np.zeros(4), resolution=16, future=None,
            enqueued_at=t,
            expires_at=None if expires_in is None
            else time.perf_counter() + expires_in)

    def _stream(self, batcher, gap_s, n, start):
        """Admit ``n`` arrivals ``gap_s`` apart; return the next stamp."""
        for i in range(n):
            batcher._admit(self._stamped(start + i * gap_s), [], None, None)
        return start + n * gap_s

    def _lone_collect(self, batcher, t, expires_in=None):
        source = RequestQueue()
        source.put(self._stamped(t, expires_in))
        t0 = time.perf_counter()
        batch = batcher.collect(source)
        assert len(batch) == 1
        return time.perf_counter() - t0

    def test_sparse_stream_dispatches_at_once(self):
        batcher = MicroBatcher(max_batch=8, max_wait_ms=500.0)
        t = self._stream(batcher, 1.0, 40, start=0.0)
        # Arrivals 1 s apart never bring a companion inside a 0.5 s hold.
        assert self._lone_collect(batcher, t) < 0.25

    def test_dense_stream_keeps_the_full_hold(self):
        batcher = MicroBatcher(max_batch=8, max_wait_ms=60.0)
        t = self._stream(batcher, 1e-4, 40, start=0.0)
        assert self._lone_collect(batcher, t) >= 0.05

    def test_one_long_gap_does_not_end_a_dense_hold(self):
        # A mean, not the last gap: one 1 s straggler after a dense
        # stream moves the estimate by 1/16 s, inside a 100 ms hold.
        batcher = MicroBatcher(max_batch=8, max_wait_ms=100.0)
        t = self._stream(batcher, 1e-4, 40, start=0.0)
        assert self._lone_collect(batcher, t + 1.0) >= 0.09

    def test_sparse_then_dense_regains_the_hold_within_40_arrivals(self):
        batcher = MicroBatcher(max_batch=8, max_wait_ms=100.0)
        t = self._stream(batcher, 1.0, 40, start=0.0)
        assert self._lone_collect(batcher, t) < 0.05
        # Five dense arrivals do not yet outweigh forty sparse ones...
        t = self._stream(batcher, 1e-4, 4, start=t + 1e-4)
        assert self._lone_collect(batcher, t) < 0.05
        # ...and forty (this lone request the last) do.
        t = self._stream(batcher, 1e-4, 34, start=t + 1e-4)
        assert self._lone_collect(batcher, t) >= 0.09

    def test_out_of_order_stamps_count_as_gap_zero(self):
        # Priority order dequeues stamps out of order; a stamp older
        # than the newest seen is no evidence of a sparse stream.
        batcher = MicroBatcher(max_batch=8, max_wait_ms=60.0)
        t = self._stream(batcher, -1.0, 40, start=100.0)
        assert self._lone_collect(batcher, t) >= 0.05

    def test_expired_requests_count_as_arrivals(self):
        batcher = MicroBatcher(max_batch=8, max_wait_ms=500.0)
        source, expired = RequestQueue(), []
        for i in range(40):
            source.put(self._stamped(float(i), expires_in=-1.0))
        source.put(self._stamped(40.0))
        t0 = time.perf_counter()
        batch = batcher.collect(source, on_expired=expired.append)
        assert len(batch) == 1 and len(expired) == 40
        assert time.perf_counter() - t0 < 0.25

    def test_edf_still_shrinks_a_held_batch(self):
        batcher = MicroBatcher(max_batch=8, max_wait_ms=500.0)
        t = self._stream(batcher, 1e-4, 40, start=0.0)
        # Dense: the hold is on, and the 10 ms deadline still cuts it.
        assert self._lone_collect(batcher, t, expires_in=0.01) < 0.25

    def test_racing_workers_serve_everything_once(self):
        """Workers share one batcher's estimate without a lock: with more
        workers than cores and a tiny switch interval, every request is
        still served exactly once and the estimate stays a gap."""
        batcher = MicroBatcher(max_batch=4, max_wait_ms=1.0)
        source = RequestQueue()
        for i in range(400):
            source.put(self._stamped(i * 1e-3))
        stop, served = threading.Event(), []
        stop.set()                              # exit once drained

        def drain():
            while batch := batcher.collect(source, stop=stop, poll_s=0.01):
                served.extend(batch)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=drain) for _ in range(4)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert sorted(r.enqueued_at for r in served) == \
            [i * 1e-3 for i in range(400)]
        assert 0.0 <= batcher._mean_gap <= 0.4

    def test_server_trickle_does_not_wait_out_the_hold(self, served):
        """A submit every 30 ms against a 20 ms hold: after the estimate
        settles no request waits the hold out, so the median queue wait
        (submit → forward, the hold included) is far below it."""
        from repro.serve import Telemetry, summarize_spans

        *_, registry = served
        server = PredictionServer(registry, ServerConfig(
            max_batch=8, max_wait_ms=20.0, workers=1, cache_bytes=0))
        telemetry = Telemetry()
        server.enable_telemetry(telemetry)
        with server:
            futures = []
            for w in RNG.uniform(-3, 3, size=(60, 4)):
                futures.append(server.submit("m", w))
                time.sleep(0.03)
            for f in futures:
                f.result(timeout=30)
        wait = summarize_spans(telemetry.tracer.spans())["queue.wait"]
        assert wait["count"] == 60
        assert wait["p50_s"] < 0.010


# --------------------------------------------------------------------- #
# Queue-depth gauge
# --------------------------------------------------------------------- #
class TestQueueDepth:
    def test_idle_server_reports_zero(self, served):
        *_, registry = served
        server = PredictionServer(registry, ServerConfig(workers=1))
        assert server.queue_depth() == 0
        assert server.stats.queue_depth == 0

    def test_queued_and_inflight_requests_count(self, served):
        *_, registry = served
        server = PredictionServer(registry, ServerConfig(
            workers=1, max_batch=1, max_wait_ms=0, cache_bytes=0))
        entered, release = threading.Event(), threading.Event()
        forward = server._forward

        def hung(entry, omegas, resolution, trace):
            entered.set()
            assert release.wait(timeout=30)
            return forward(entry, omegas, resolution, trace=trace)

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
