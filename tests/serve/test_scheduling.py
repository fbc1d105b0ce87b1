"""Deterministic scheduling semantics: priorities, deadlines, backpressure.

Every test here pins an ordering or rejection the server's latency
story depends on, using events — never sleeps — to hold the single
worker in a known state while the queue is arranged.
"""

import queue
import threading
import time
from concurrent.futures import Future, wait

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MGDiffNet, PoissonProblem2D
from repro.core.inference import predict_batch
from repro.serve import (
    DeadlineExceeded, MicroBatcher, ModelRegistry, PredictRequest,
    PredictionServer, RequestQueue, ServerConfig, ServerOverloaded,
)

RNG = np.random.default_rng(23)


def _request(priority=0, tag=0.0, deadline_s=None, enqueued_at=None):
    expires = time.perf_counter() + deadline_s if deadline_s is not None \
        else None
    req = PredictRequest(model_name="m", omega=np.full(4, tag),
                         resolution=16, future=Future(), key=("k", tag),
                         priority=priority, deadline_s=deadline_s,
                         expires_at=expires)
    if enqueued_at is not None:
        # Forged arrival stamps: the queue order must not read them.
        req.enqueued_at = enqueued_at
    return req


@pytest.fixture(scope="module")
def served():
    problem = PoissonProblem2D(16)
    model = MGDiffNet(ndim=2, base_filters=4, depth=1, rng=1)
    registry = ModelRegistry()
    registry.register_model("m", model, problem)
    return model, problem, registry


class _BlockedWorker:
    """Hold the server's single worker inside a filler forward."""

    def __init__(self, server):
        self.server = server
        self.order: list[float] = []
        self.started = threading.Event()
        self.release = threading.Event()
        forward = server._forward

        def hooked(entry, omegas, resolution, trace):
            if not self.started.is_set():
                self.started.set()
                assert self.release.wait(timeout=30)
            else:
                self.order.extend(float(w[0]) for w in omegas)
            return forward(entry, omegas, resolution, trace=trace)

        server._forward = hooked

    def block(self) -> Future:
        """Submit the filler and wait until the worker is inside it."""
        filler = self.server.submit("m", np.full(4, -1.0))
        assert self.started.wait(timeout=30)
        return filler

    def result(self, future: Future, timeout: float = 30.0):
        """``future.result(timeout)`` that fails as soon as a worker
        thread has died, not after the whole timeout: a dead worker
        resolves nothing more."""
        deadline = time.monotonic() + timeout
        while not wait([future], timeout=0.05).done:
            dead = [t.name for t in self.server._workers
                    if not t.is_alive()]
            assert not dead, f"server worker thread died: {dead}"
            if time.monotonic() >= deadline:
                break
        return future.result(timeout=0)


class TestRequestQueue:
    def test_higher_priority_dequeues_first(self):
        q = RequestQueue()
        q.put(_request(priority=0, tag=1))
        q.put(_request(priority=5, tag=2))
        q.put(_request(priority=1, tag=3))
        tags = [q.get().omega[0] for _ in range(3)]
        assert tags == [2, 3, 1]

    def test_fifo_within_a_priority_level(self):
        q = RequestQueue()
        for tag in (1, 2, 3):
            q.put(_request(priority=7, tag=tag))
        assert [q.get().omega[0] for _ in range(3)] == [1, 2, 3]

    def test_bounded_queue_raises_full(self):
        q = RequestQueue(maxsize=2)
        q.put(_request(), block=False)
        q.put(_request(), block=False)
        with pytest.raises(queue.Full):
            q.put(_request(), block=False)

    def test_collect_drains_priority_order(self):
        q = RequestQueue()
        q.put(_request(priority=0, tag=1))
        q.put(_request(priority=0, tag=2))
        q.put(_request(priority=9, tag=3))
        batch = MicroBatcher(max_batch=2, max_wait_ms=0).collect(q)
        assert [r.omega[0] for r in batch] == [3, 1]


class TestQueueOrderProperty:
    """Strict priority is the one queue order.  Over any interleaving of
    ``put`` and ``get`` — arrival stamps forged anywhere from far past
    to future, so no age term can hide — ``get`` returns the pending
    request with the highest priority, earliest arrival first, and a
    bounded queue raises ``queue.Full`` exactly when ``maxsize``
    requests are pending."""

    @settings(max_examples=80, deadline=None)
    @given(maxsize=st.integers(0, 5),
           ops=st.lists(st.one_of(
               st.tuples(st.just("put"), st.integers(-3, 3),
                         st.floats(-100.0, 100.0)),
               st.just(("get",))), max_size=40))
    def test_get_order_and_bound(self, maxsize, ops):
        q = RequestQueue(maxsize=maxsize)
        pending: list[tuple[int, int]] = []     # model: (priority, seq)
        now = time.perf_counter()
        for seq, op in enumerate(ops):
            if op[0] == "put":
                _, priority, age = op
                req = _request(priority=priority, tag=float(seq),
                               enqueued_at=now - age)
                if maxsize and len(pending) == maxsize:
                    with pytest.raises(queue.Full):
                        q.put(req, block=False)
                    continue
                q.put(req, block=False)
                pending.append((priority, seq))
            elif pending:
                best = min(pending, key=lambda e: (-e[0], e[1]))
                pending.remove(best)
                assert q.get_nowait().omega[0] == best[1]
            else:
                with pytest.raises(queue.Empty):
                    q.get_nowait()
        assert q.qsize() == len(pending)


class TestCancellation:
    def test_cancelled_request_does_not_kill_worker(self, served):
        """``Future.cancel()`` on a queued request: the worker skips it
        instead of dying on InvalidStateError when it would resolve it,
        releases its dedup slot, and keeps serving."""
        model, problem, registry = served
        server = PredictionServer(registry, ServerConfig(
            max_batch=1, max_wait_ms=0, workers=1, cache_bytes=0))
        hook = _BlockedWorker(server)
        # No draining stop: a dead worker would leave the queue unjoinable.
        server.start()
        try:
            filler = hook.block()
            doomed = server.submit("m", np.full(4, 5.0))
            assert doomed.cancel()
            hook.release.set()
            hook.result(filler)
            # The worker survived the cancelled request and still
            # serves: a fresh submit resolves correctly.
            omega = RNG.uniform(-3, 3, 4)
            u = hook.result(server.submit("m", omega))
        finally:
            server.stop(drain=False)
        np.testing.assert_allclose(
            u, predict_batch(model, problem, omega)[0], atol=1e-6)
        assert doomed.cancelled()
        assert 5.0 not in hook.order            # never computed
        assert server.stats.errors == 0
        assert not server._inflight     # cancelled dedup slot released

    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_cancelled_member_leaves_its_fused_group(self, served,
                                                     executor):
        """A request cancelled while queued is dropped from the batch it
        was drained into; its companions still run as one fused forward
        and get their own fields, on every executor (a process pool
        receives the fused batch whole)."""
        model, problem, registry = served
        server = PredictionServer(registry, ServerConfig(
            max_batch=4, max_wait_ms=0, workers=1, cache_bytes=0,
            executor=executor))
        hook = _BlockedWorker(server)
        omegas = RNG.uniform(-3, 3, size=(3, 4))
        server.start()
        try:
            filler = hook.block()
            futures = [server.submit("m", w) for w in omegas]
            assert futures[1].cancel()
            hook.release.set()
            hook.result(filler)
            kept = [hook.result(futures[0]), hook.result(futures[2])]
        finally:
            server.stop(drain=False)
            server.close()
        ref = predict_batch(model, problem, omegas[[0, 2]])
        np.testing.assert_allclose(np.stack(kept), ref, atol=1e-6)
        assert hook.order == [omegas[0, 0], omegas[2, 0]]
        assert server.stats.batches == 2            # filler + one fused
        assert server.stats.batched_requests == 3
        assert server.stats.errors == 0
        assert not server._inflight

    def test_cancel_after_the_claim_fails_cleanly(self, served):
        """A cancel that arrives once the worker has claimed the request
        (its forward is running) returns False; the caller still gets
        the field and nothing is counted as an error."""
        model, problem, registry = served
        server = PredictionServer(registry, ServerConfig(
            max_batch=1, max_wait_ms=0, workers=1, cache_bytes=0))
        hook = _BlockedWorker(server)
        server.start()
        try:
            running = hook.block()       # the worker is inside its forward
            assert not running.cancel()
            hook.release.set()
            u = running.result(timeout=30)
        finally:
            server.stop(drain=False)
        np.testing.assert_allclose(
            u, predict_batch(model, problem, np.full(4, -1.0))[0],
            atol=1e-6)
        assert not running.cancelled()
        assert server.stats.errors == 0 and server.stats.batches == 1


class TestGrouping:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from("ab"), st.sampled_from((8, 16)),
                              st.integers(-2, 2)), max_size=12))
    def test_groups_partition_by_model_and_resolution(self, specs):
        """Every request fuses: groups partition the drained batch by
        (model, resolution) alone — priority never splits a group —
        each group keeps batch order, groups keep first-seen order."""
        batch = [PredictRequest(model_name=m, omega=np.full(4, float(i)),
                                resolution=r, future=Future(), priority=p)
                 for i, (m, r, p) in enumerate(specs)]
        groups = MicroBatcher.group_compatible(batch)
        assert sorted(r.omega[0] for g in groups for r in g) == \
            list(range(len(batch)))
        keys = [(g[0].model_name, g[0].resolution) for g in groups]
        firsts = list(dict.fromkeys((m, r) for m, r, _ in specs))
        assert keys == firsts
        for key, group in zip(keys, groups):
            assert all((r.model_name, r.resolution) == key for r in group)
            tags = [r.omega[0] for r in group]
            assert tags == sorted(tags)


class TestCollectExpiry:
    @settings(max_examples=60, deadline=None)
    @given(specs=st.lists(st.tuples(st.integers(-2, 2), st.booleans()),
                          max_size=12),
           max_batch=st.integers(1, 5))
    def test_collect_drains_a_prefix_of_the_queue_order(self, specs,
                                                        max_batch):
        """``collect`` consumes the queue in (-priority, arrival) order:
        past-due requests go to the hook and take no slot, the batch is
        the first ``max_batch`` live ones, the rest stay queued, and
        every consumed expiry is marked done for ``join``."""
        q = RequestQueue()
        for i, (priority, dead) in enumerate(specs):
            q.put(_request(priority=priority, tag=float(i),
                           deadline_s=-1.0 if dead else None))
        order = sorted(range(len(specs)), key=lambda i: (-specs[i][0], i))
        want_batch, want_expired, rest = [], [], list(order)
        while rest and len(want_batch) < max_batch:
            i = rest.pop(0)
            (want_expired if specs[i][1] else want_batch).append(i)
        stop = threading.Event()
        stop.set()                       # an all-expired queue ends empty
        expired = []
        batch = MicroBatcher(max_batch=max_batch, max_wait_ms=0).collect(
            q, stop=stop, poll_s=0.001, on_expired=expired.append)
        assert [r.omega[0] for r in batch] == want_batch
        assert [r.omega[0] for r in expired] == want_expired
        assert [q.get_nowait().omega[0] for _ in rest] == rest
        assert q.unfinished_tasks == len(specs) - len(want_expired)

    def test_expired_request_routed_to_hook_not_batch(self):
        q = RequestQueue()
        dead = _request(tag=1, deadline_s=-1.0)     # already past due
        live = _request(tag=2)
        q.put(dead)
        q.put(live)
        expired = []
        batch = MicroBatcher(max_batch=8, max_wait_ms=0).collect(
            q, on_expired=expired.append)
        assert [r.omega[0] for r in batch] == [2]
        assert expired == [dead]

    def test_expired_requests_do_not_consume_batch_slots(self):
        q = RequestQueue()
        for tag in (1, 2, 3):
            q.put(_request(tag=tag, deadline_s=-1.0))
        q.put(_request(tag=4))
        expired = []
        batch = MicroBatcher(max_batch=1, max_wait_ms=0).collect(
            q, on_expired=expired.append)
        assert [r.omega[0] for r in batch] == [4]
        assert len(expired) == 3

    def test_without_hook_expiry_is_ignored(self):
        # Legacy callers (no on_expired) keep the old drain-everything
        # contract.
        q = RequestQueue()
        q.put(_request(tag=1, deadline_s=-1.0))
        batch = MicroBatcher(max_batch=4, max_wait_ms=0).collect(q)
        assert len(batch) == 1


class TestPriorityEndToEnd:
    def test_high_priority_jumps_saturated_queue(self, served):
        """With the single worker pinned, queued high-priority requests
        must all run before queued low-priority ones, FIFO per lane."""
        *_, registry = served
        server = PredictionServer(registry, ServerConfig(
            max_batch=1, max_wait_ms=0, workers=1, cache_bytes=0))
        hook = _BlockedWorker(server)
        with server:
            hook.block()
            lows = [server.submit("m", np.full(4, 10.0 + i), priority=0)
                    for i in range(3)]
            highs = [server.submit("m", np.full(4, 100.0 + i), priority=5)
                     for i in range(3)]
            hook.release.set()
            for f in lows + highs:
                f.result(timeout=30)
        assert hook.order == [100.0, 101.0, 102.0, 10.0, 11.0, 12.0]

    def test_equal_priorities_keep_fifo(self, served):
        *_, registry = served
        server = PredictionServer(registry, ServerConfig(
            max_batch=1, max_wait_ms=0, workers=1, cache_bytes=0))
        hook = _BlockedWorker(server)
        with server:
            hook.block()
            futures = [server.submit("m", np.full(4, 10.0 + i))
                       for i in range(4)]
            hook.release.set()
            for f in futures:
                f.result(timeout=30)
        assert hook.order == [10.0, 11.0, 12.0, 13.0]


class TestDeadlines:
    def test_expired_deadline_fails_keyed_without_forward(self, served):
        *_, registry = served
        server = PredictionServer(registry, ServerConfig(
            max_batch=1, max_wait_ms=0, workers=1, cache_bytes=0))
        hook = _BlockedWorker(server)
        with server:
            hook.block()
            doomed = server.submit("m", np.full(4, 42.0), deadline_s=0.01)
            ok = server.submit("m", np.full(4, 7.0), deadline_s=60.0)
            time.sleep(0.05)            # let the queued deadline lapse
            hook.release.set()
            with pytest.raises(DeadlineExceeded) as info:
                doomed.result(timeout=30)
            ok.result(timeout=30)
        # Keyed error: names the model and carries the budget it missed.
        assert info.value.model_name == "m"
        assert info.value.deadline_s == pytest.approx(0.01)
        assert info.value.waited_s >= 0.01
        # The digest is the request's cache-key digest exactly, so a
        # logged rejection correlates with the key it names.
        from repro.serve.cache import key_digest

        assert info.value.key_digest == key_digest(
            server._key(registry.get("m"), np.full(4, 42.0), 16))
        # The expired request never entered a fused forward.
        assert 42.0 not in hook.order
        assert 7.0 in hook.order
        assert server.stats.expired == 1
        assert server.stats.errors == 0
        assert not server._inflight

    def test_deadline_exceeded_is_a_timeout_error(self, served):
        *_, registry = served
        server = PredictionServer(registry)
        with pytest.raises(TimeoutError):
            server.predict("m", np.zeros(4), deadline_s=-1.0)

    def test_sync_frontend_honors_spent_budget(self, served):
        """A dead-on-arrival deadline expires on the sync path too —
        semantics must not depend on whether workers are running."""
        *_, registry = served
        server = PredictionServer(registry)
        future = server.submit("m", np.zeros(4), deadline_s=0.0)
        with pytest.raises(DeadlineExceeded):
            future.result(timeout=1)
        assert server.stats.expired == 1
        assert not server._inflight

    def test_default_deadline_from_config(self, served):
        *_, registry = served
        server = PredictionServer(registry, ServerConfig(
            default_deadline_s=-1.0))
        with pytest.raises(DeadlineExceeded):
            server.predict("m", np.zeros(4))
        # An explicit submit deadline overrides the config default.
        u = server.predict("m", np.zeros(4), deadline_s=60.0)
        assert u.shape == (16, 16)

    def test_cache_hit_beats_deadline(self, served):
        """A hit resolves instantly, so even a dead deadline is met."""
        *_, registry = served
        server = PredictionServer(registry)
        omega = RNG.uniform(-3, 3, 4)
        server.predict("m", omega)
        u = server.predict("m", omega, deadline_s=0.0)
        assert u.shape == (16, 16)
        assert server.cache.stats.hits == 1


class TestBackpressure:
    def test_overflow_rejects_keyed_and_counts(self, served):
        *_, registry = served
        server = PredictionServer(registry, ServerConfig(
            max_batch=1, max_wait_ms=0, workers=1, cache_bytes=0,
            max_pending=2))
        hook = _BlockedWorker(server)
        with server:
            hook.block()                 # worker busy, queue empty
            queued = [server.submit("m", np.full(4, 10.0 + i))
                      for i in range(2)]
            with pytest.raises(ServerOverloaded) as info:
                server.submit("m", np.full(4, 99.0))
            hook.release.set()
            for f in queued:
                f.result(timeout=30)
        assert info.value.max_pending == 2
        assert info.value.pending == 2
        assert info.value.model_name == "m"
        assert server.stats.rejected == 1
        assert server.stats.errors == 0
        # The rejected request left no state behind: not in flight, and
        # 99 never reached a forward.
        assert 99.0 not in hook.order
        assert not server._inflight

    def test_rejected_request_can_be_resubmitted(self, served):
        model, problem, registry = served
        server = PredictionServer(registry, ServerConfig(
            max_batch=1, max_wait_ms=0, workers=1, cache_bytes=0,
            max_pending=1))
        hook = _BlockedWorker(server)
        omega = RNG.uniform(-3, 3, 4)
        with server:
            hook.block()
            queued = server.submit("m", np.full(4, 10.0))
            with pytest.raises(ServerOverloaded):
                server.submit("m", omega)
            hook.release.set()
            queued.result(timeout=30)    # queue drained, slot free again
            # The retry must compute fresh, not attach to a future the
            # rejection abandoned.
            u = server.predict("m", omega, timeout=30)
        from repro.core.inference import predict_batch

        np.testing.assert_allclose(u, predict_batch(model, problem, omega)[0],
                                   atol=1e-6)
        assert server.stats.rejected == 1

    def test_cache_hit_bypasses_full_queue(self, served):
        *_, registry = served
        server = PredictionServer(registry, ServerConfig(
            max_batch=1, max_wait_ms=0, workers=1, max_pending=1))
        omega = RNG.uniform(-3, 3, 4)
        server.predict("m", omega)       # fill the cache pre-start
        hook = _BlockedWorker(server)
        with server:
            hook.block()
            server.submit("m", np.full(4, 10.0))     # queue now full
            hit = server.submit("m", omega)          # resolves instantly
            assert hit.done()
            hook.release.set()
        assert server.stats.rejected == 0

    def test_dedup_twin_bypasses_full_queue(self, served):
        *_, registry = served
        server = PredictionServer(registry, ServerConfig(
            max_batch=1, max_wait_ms=0, workers=1, cache_bytes=0,
            max_pending=1))
        hook = _BlockedWorker(server)
        omega = RNG.uniform(-3, 3, 4)
        with server:
            hook.block()
            first = server.submit("m", omega)        # queue now full
            twin = server.submit("m", omega)         # attaches, no slot
            assert twin is first
            hook.release.set()
            first.result(timeout=30)
        assert server.stats.dedup_hits == 1
        assert server.stats.rejected == 0

    def test_twin_attaching_in_rejection_window_is_failed_not_orphaned(
            self, served):
        """A twin that attaches to an in-flight future in the instant
        before its submit is rejected must receive the rejection through
        the future — never wait forever on a request nothing owns."""
        *_, registry = served
        server = PredictionServer(registry, ServerConfig(
            max_batch=1, max_wait_ms=0, workers=1, cache_bytes=0,
            max_pending=1))
        omega = RNG.uniform(-3, 3, 4)
        attached = {}
        real_put = server._queue.put

        def racing_put(request, block=True, timeout=None):
            if request.omega[0] == omega[0]:
                # The race window: the in-flight entry exists, the queue
                # slot does not.  A twin submitted now takes the dedup
                # path and attaches to the about-to-be-rejected future.
                attached["twin"] = server.submit("m", omega)
                raise queue.Full
            return real_put(request, block, timeout)

        server._queue.put = racing_put
        with server:
            with pytest.raises(ServerOverloaded):
                server.submit("m", omega)
            with pytest.raises(ServerOverloaded):
                attached["twin"].result(timeout=5)
        assert server.stats.dedup_hits == 1
        assert server.stats.rejected == 1
        assert not server._inflight

    def test_unbounded_by_default(self, served):
        *_, registry = served
        server = PredictionServer(registry, ServerConfig(
            max_batch=4, max_wait_ms=1, workers=1, cache_bytes=0))
        with server:
            futures = [server.submit("m", RNG.uniform(-3, 3, 4))
                       for _ in range(32)]
            for f in futures:
                f.result(timeout=60)
        assert server.stats.rejected == 0
