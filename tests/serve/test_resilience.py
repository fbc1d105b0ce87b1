"""Resilience layer: retry budgets, hedged reads, circuit breakers.

Contracts pinned here:

* **Retry policy** — full-jitter backoff windows are honored exactly
  under a seeded RNG and forged clock; the token-bucket budget caps
  retries at ``burst + rate * t`` whatever the failure rate; throttles
  are retried at exactly their ``retry_after_s``.
* **Circuit breaker** — the closed → open → half-open machine under a
  forged clock: threshold trips, cool-down rejections, trial slots,
  deterministic ``tick``, and the re-arm that keeps a half-open
  circuit from wedging when a trial never reports back.
* **Hedge policy** — warmup returns ``max_delay_s``; after warmup the
  delay tracks the rolling latency quantile, clamped.
* **Fleet integration** — retries ride through transient verdicts with
  every attempt individually conserved; a hedged read beats a slow
  primary and the loser is cancelled, with ``served`` counted exactly
  once; an open circuit reorders replicas without dropping a request.
  ``FleetStats.lost == 0`` in all of it.
"""

import asyncio
import time
from concurrent.futures import Future

import numpy as np
import pytest

from repro import MGDiffNet, PoissonProblem2D
from repro.core.inference import predict_batch
from repro.serve import (
    AdmissionController, AsyncPredictionServer, BreakerConfig,
    CircuitBreaker, FleetConfig, HedgeConfig, HedgePolicy, ResilienceConfig,
    RetryConfig, RetryPolicy, ServerConfig, ServerOverloaded, ShardedFleet,
    TenantQuota, TenantThrottled, VirtualClock, aio, install_resilience,
    retry_call, uninstall_resilience,
)
from repro.serve.errors import FleetUnavailable


@pytest.fixture(scope="module")
def served():
    problem = PoissonProblem2D(16)
    model = MGDiffNet(ndim=2, base_filters=4, depth=1, rng=1)
    return model, problem


def _fleet(shards=2, replicas=2, **fleet_kw) -> ShardedFleet:
    return ShardedFleet(FleetConfig(
        shards=shards, replicas=replicas,
        server=ServerConfig(max_batch=4, max_wait_ms=0.0, workers=1,
                            cache_bytes=0), **fleet_kw))


def _overloaded() -> ServerOverloaded:
    return ServerOverloaded("m", None, 9, 9)


def _unavailable() -> FleetUnavailable:
    return FleetUnavailable("m", ["shard-00"])


def _throttled(after_s: float) -> TenantThrottled:
    return TenantThrottled("m", "t", after_s, rate=1.0, burst=1.0)


class TestRetryPolicy:
    def test_non_retryable_returns_none(self):
        clock = VirtualClock()
        policy = RetryPolicy(RetryConfig(), clock=clock)
        assert policy.plan(ValueError("bad omega"), 0) is None
        assert policy.retries == 0

    def test_transient_verdicts_are_retryable_by_default(self):
        policy = RetryPolicy(RetryConfig(), clock=VirtualClock())
        for exc in (_overloaded(), _unavailable(), _throttled(0.1)):
            assert policy.retryable(exc)
        assert not policy.retryable(RuntimeError("shard exploded"))

    def test_custom_retryable_predicate(self):
        policy = RetryPolicy(
            RetryConfig(), clock=VirtualClock(),
            retryable=lambda exc: isinstance(exc, OSError))
        assert policy.plan(OSError(), 0) is not None
        assert policy.plan(_overloaded(), 0) is None

    def test_max_attempts_exhausts(self):
        policy = RetryPolicy(RetryConfig(max_attempts=3),
                             clock=VirtualClock())
        assert policy.plan(_overloaded(), 0) is not None
        assert policy.plan(_overloaded(), 1) is not None
        assert policy.plan(_overloaded(), 2) is None   # 3rd try was the last
        assert policy.exhausted == 1
        assert policy.retries == 2

    def test_full_jitter_window_escalates_and_caps(self):
        cfg = RetryConfig(max_attempts=10, base_backoff_s=0.01,
                          max_backoff_s=0.05, budget_burst=100.0)
        policy = RetryPolicy(cfg, clock=VirtualClock())
        for attempt in range(8):
            delay = policy.plan(_overloaded(), attempt)
            window = min(cfg.max_backoff_s,
                         cfg.base_backoff_s * 2.0 ** attempt)
            assert 0.0 <= delay <= window

    def test_jitter_is_deterministic_per_seed(self):
        def delays(seed):
            policy = RetryPolicy(
                RetryConfig(max_attempts=10, budget_burst=100.0, seed=seed),
                clock=VirtualClock())
            return [policy.plan(_overloaded(), a) for a in range(6)]

        assert delays(5) == delays(5)
        assert delays(5) != delays(6)

    def test_throttle_honored_at_exact_retry_after(self):
        policy = RetryPolicy(RetryConfig(), clock=VirtualClock())
        assert policy.plan(_throttled(0.125), 0) == 0.125
        assert policy.plan(_throttled(-1.0), 1) == 0.0   # never negative

    def test_budget_denies_then_refills(self):
        clock = VirtualClock()
        policy = RetryPolicy(
            RetryConfig(max_attempts=100, budget_rate=2.0, budget_burst=2.0),
            clock=clock)
        assert policy.plan(_overloaded(), 0) is not None
        assert policy.plan(_overloaded(), 0) is not None
        assert policy.plan(_overloaded(), 0) is None     # bucket empty
        assert policy.denied == 1
        clock.advance(0.5)                               # refills one token
        assert policy.plan(_overloaded(), 0) is not None
        assert policy.retries == 3

    def test_budget_ceiling_formula(self):
        policy = RetryPolicy(RetryConfig(budget_rate=2.0, budget_burst=8.0),
                             clock=VirtualClock())
        assert policy.budget_ceiling(0.0) == 8.0
        assert policy.budget_ceiling(5.0) == 18.0
        assert policy.budget_ceiling(-3.0) == 8.0

    def test_budget_never_exceeds_ceiling_under_storm(self):
        """However many callers fail, granted retries stay under
        burst + rate * elapsed — the storm brake."""
        clock = VirtualClock()
        policy = RetryPolicy(
            RetryConfig(max_attempts=100, budget_rate=4.0, budget_burst=3.0),
            clock=clock)
        granted = 0
        for _ in range(50):
            clock.advance(0.05)
            for _ in range(10):                          # a failing burst
                if policy.plan(_overloaded(), 0) is not None:
                    granted += 1
        assert granted == policy.retries
        assert granted <= policy.budget_ceiling(50 * 0.05)

    def test_tokens_property_reports_budget(self):
        policy = RetryPolicy(RetryConfig(budget_burst=4.0),
                             clock=VirtualClock())
        assert policy.tokens == 4.0
        policy.plan(_overloaded(), 0)
        assert policy.tokens == 3.0

    def test_parameter_validation(self):
        for bad in (dict(max_attempts=0), dict(base_backoff_s=0.0),
                    dict(base_backoff_s=1.0, max_backoff_s=0.5),
                    dict(budget_rate=0.0), dict(budget_burst=0.5)):
            with pytest.raises(ValueError):
                RetryConfig(**bad)


class _Script:
    """A back-end whose ``submit`` follows a failure script: each entry
    is an exception to raise, or ``None`` to answer.  Carries the
    fleet's two retry hooks (``retry`` / ``note_retry``)."""

    def __init__(self, policy, script):
        self.retry = policy
        self.script = list(script)
        self.retried = 0

    def submit(self, *args, **kwargs):
        exc = self.script.pop(0)
        if exc is not None:
            raise exc
        future = Future()
        future.set_result("field")
        return future

    def note_retry(self, *_):
        self.retried += 1


class _RecordingPolicy(RetryPolicy):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.asked = []

    def plan(self, exc, attempt, now=None):
        self.asked.append((type(exc).__name__, attempt))
        return super().plan(exc, attempt, now)


class TestRetryDriver:
    """``retry_call`` (sync) and ``AsyncPredictionServer.predict`` (its
    awaiting twin) are the only two retry loops; same script in, same
    ``plan`` calls, same sleeps, same ``retried`` out."""

    SCRIPT = (_overloaded, lambda: _throttled(0.125), _unavailable,
              _overloaded, lambda: None)

    def _policy(self):
        return _RecordingPolicy(
            RetryConfig(max_attempts=8, budget_burst=8.0, seed=11),
            clock=VirtualClock())

    def _sync(self):
        backend = _Script(self._policy(), [make() for make in self.SCRIPT])
        slept = []
        out = retry_call(backend.retry,
                         lambda: backend.submit("m", None).result(),
                         sleep=slept.append, on_retry=backend.note_retry)
        return out, backend, slept

    def _async(self, monkeypatch):
        backend = _Script(self._policy(), [make() for make in self.SCRIPT])
        slept = []

        async def forged_sleep(dt):
            slept.append(dt)

        monkeypatch.setattr(aio.asyncio, "sleep", forged_sleep)
        out = asyncio.run(AsyncPredictionServer(backend).predict("m", None))
        return out, backend, slept

    def test_sync_and_async_drivers_ask_the_same_plans(self, monkeypatch):
        s_out, s_backend, s_slept = self._sync()
        a_out, a_backend, a_slept = self._async(monkeypatch)
        assert s_out == a_out == "field"
        assert s_backend.retry.asked == a_backend.retry.asked == [
            ("ServerOverloaded", 0), ("TenantThrottled", 1),
            ("FleetUnavailable", 2), ("ServerOverloaded", 3)]
        assert s_slept == a_slept          # same seed, same jitter draws
        assert s_slept[1] == 0.125         # the throttle's own horizon
        assert s_backend.retried == a_backend.retried == 4
        assert s_backend.retry.retries == 4

    def test_gives_up_with_the_last_verdict(self):
        policy = self._policy()
        backend = _Script(policy, [_overloaded(), ValueError("bad omega")])
        slept = []
        with pytest.raises(ValueError):
            retry_call(policy, lambda: backend.submit("m", None),
                       sleep=slept.append, on_retry=backend.note_retry)
        assert policy.asked == [("ServerOverloaded", 0), ("ValueError", 1)]
        assert len(slept) == backend.retried == 1

    def test_no_policy_is_one_attempt(self):
        backend = _Script(None, [_overloaded(), None])
        with pytest.raises(ServerOverloaded):
            retry_call(None, lambda: backend.submit("m", None))
        assert len(backend.script) == 1    # the second try never happened

    def test_wall_clock_cap_propagates_the_pending_verdict(self):
        """A delay that would end past ``max_wait_s`` is not slept: the
        verdict in hand propagates (the CLI client's 30 s cap)."""
        clock = VirtualClock(start=100.0)
        policy = RetryPolicy(RetryConfig(max_attempts=99, budget_burst=99.0),
                             clock=clock)
        slept = []

        def sleep(dt):
            slept.append(dt)
            clock.advance(dt)

        def attempt():
            raise _throttled(0.4)

        announced = []
        with pytest.raises(TenantThrottled):
            retry_call(policy, attempt, sleep=sleep, max_wait_s=1.0,
                       clock=clock,
                       on_retry=lambda exc, delay: announced.append(delay))
        assert slept == [0.4, 0.4]         # a third would end at 1.2 s
        assert clock.now == pytest.approx(100.8)
        # The counting hook saw exactly the retries made; the policy had
        # already granted the plan the cap then declined to sleep.
        assert announced == slept
        assert policy.retries == len(slept) + 1


class TestHedgePolicy:
    def test_warmup_returns_max_delay(self):
        policy = HedgePolicy(HedgeConfig(warmup=4, max_delay_s=0.1))
        for _ in range(3):
            policy.observe(0.001)
        assert policy.delay_s() == 0.1

    def test_tracks_quantile_after_warmup(self):
        policy = HedgePolicy(HedgeConfig(
            quantile=50.0, warmup=4, min_delay_s=0.001, max_delay_s=1.0))
        for latency in (0.01, 0.02, 0.03, 0.04):
            policy.observe(latency)
        assert policy.delay_s() == pytest.approx(0.025)

    def test_delay_clamped_to_bounds(self):
        policy = HedgePolicy(HedgeConfig(
            quantile=50.0, warmup=2, min_delay_s=0.01, max_delay_s=0.02))
        for latency in (1e-6, 1e-6):
            policy.observe(latency)
        assert policy.delay_s() == 0.01
        for latency in (5.0,) * 10:
            policy.observe(latency)
        assert policy.delay_s() == 0.02

    def test_window_is_rolling(self):
        policy = HedgePolicy(HedgeConfig(
            quantile=50.0, warmup=2, window=4, max_delay_s=10.0))
        for latency in (9.0,) * 4 + (1.0,) * 4:   # old samples roll out
            policy.observe(latency)
        assert policy.delay_s() == pytest.approx(1.0)

    def test_parameter_validation(self):
        for bad in (dict(quantile=0.0), dict(quantile=100.0),
                    dict(min_delay_s=0.0),
                    dict(min_delay_s=0.5, max_delay_s=0.1),
                    dict(window=0), dict(warmup=0)):
            with pytest.raises(ValueError):
                HedgeConfig(**bad)


class TestCircuitBreaker:
    KEY = ("m", "shard-00")

    def _breaker(self, clock, **kw):
        kw.setdefault("failure_threshold", 3)
        kw.setdefault("reset_after_s", 1.0)
        return CircuitBreaker(BreakerConfig(**kw), clock=clock)

    def test_closed_allows_and_subthreshold_failures_stay_closed(self):
        clock = VirtualClock()
        breaker = self._breaker(clock)
        assert breaker.allow(self.KEY)
        breaker.record_failure(self.KEY)
        breaker.record_failure(self.KEY)
        assert breaker.state(self.KEY) == "closed"
        assert breaker.allow(self.KEY)

    def test_threshold_trips_open_and_rejects(self):
        clock = VirtualClock()
        breaker = self._breaker(clock)
        for _ in range(3):
            breaker.record_failure(self.KEY)
        assert breaker.state(self.KEY) == "open"
        assert breaker.trips == 1
        assert not breaker.allow(self.KEY)
        assert breaker.rejections == 1
        assert breaker.snapshot() == {self.KEY: "open"}

    def test_success_below_threshold_forgets_the_streak(self):
        clock = VirtualClock()
        breaker = self._breaker(clock)
        breaker.record_failure(self.KEY)
        breaker.record_failure(self.KEY)
        breaker.record_success(self.KEY)          # streak reset
        breaker.record_failure(self.KEY)
        breaker.record_failure(self.KEY)
        assert breaker.state(self.KEY) == "closed"

    def test_cooldown_elapses_into_half_open_trial(self):
        clock = VirtualClock()
        breaker = self._breaker(clock, half_open_max=1)
        for _ in range(3):
            breaker.record_failure(self.KEY)
        clock.advance(1.0)
        assert breaker.allow(self.KEY)            # the one trial slot
        assert breaker.state(self.KEY) == "half-open"
        assert breaker.half_opens == 1
        assert not breaker.allow(self.KEY)        # slots exhausted

    def test_trial_success_closes_trial_failure_reopens(self):
        clock = VirtualClock()
        breaker = self._breaker(clock)
        for _ in range(3):
            breaker.record_failure(self.KEY)
        clock.advance(1.0)
        assert breaker.allow(self.KEY)
        breaker.record_success(self.KEY)
        assert breaker.state(self.KEY) == "closed"
        assert breaker.resets == 1
        assert breaker.allow(self.KEY)

        other = ("m", "shard-01")
        for _ in range(3):
            breaker.record_failure(other)
        clock.advance(1.0)
        assert breaker.allow(other)
        breaker.record_failure(other)             # trial failed: re-open
        assert breaker.state(other) == "open"
        assert breaker.trips == 3
        assert not breaker.allow(other)

    def test_failure_while_open_restarts_cooldown(self):
        clock = VirtualClock()
        breaker = self._breaker(clock)
        for _ in range(3):
            breaker.record_failure(self.KEY)
        clock.advance(0.9)
        breaker.record_failure(self.KEY)          # still failing
        clock.advance(0.5)                        # 1.4s after the trip...
        assert not breaker.allow(self.KEY)        # ...but cooldown restarted
        clock.advance(0.6)                        # past the restarted window
        assert breaker.allow(self.KEY)

    def test_unresolved_trial_rearms_instead_of_wedging(self):
        """A trial slot granted but never reported back (the request
        went elsewhere) must not lock the circuit half-open forever."""
        clock = VirtualClock()
        breaker = self._breaker(clock, half_open_max=1)
        for _ in range(3):
            breaker.record_failure(self.KEY)
        clock.advance(1.0)
        assert breaker.allow(self.KEY)            # trial slot, no outcome
        assert not breaker.allow(self.KEY)
        clock.advance(1.0)
        assert breaker.allow(self.KEY)            # re-armed, not wedged

    def test_tick_advances_open_circuits_deterministically(self):
        clock = VirtualClock()
        breaker = self._breaker(clock)
        for _ in range(3):
            breaker.record_failure(self.KEY)
        assert breaker.tick(now=0.5) == []
        moved = breaker.tick(now=1.0)
        assert moved == [self.KEY]
        assert breaker.state(self.KEY) == "half-open"
        assert breaker.tick(now=2.0) == []        # already half-open

    def test_keys_are_independent(self):
        clock = VirtualClock()
        breaker = self._breaker(clock)
        for _ in range(3):
            breaker.record_failure(("m", "a"))
        assert not breaker.allow(("m", "a"))
        assert breaker.allow(("m", "b"))
        assert breaker.allow(("other", "a"))

    def test_parameter_validation(self):
        for bad in (dict(failure_threshold=0), dict(reset_after_s=0.0),
                    dict(half_open_max=0)):
            with pytest.raises(ValueError):
                BreakerConfig(**bad)


class TestInstallResilience:
    def test_default_config_installs_all_three_seams(self, served):
        fleet = _fleet()
        assert fleet.retry is None
        assert fleet.hedge is None
        assert fleet.breaker is None
        install_resilience(fleet)
        assert isinstance(fleet.retry, RetryPolicy)
        assert isinstance(fleet.hedge, HedgePolicy)
        assert isinstance(fleet.breaker, CircuitBreaker)
        uninstall_resilience(fleet)
        assert (fleet.retry, fleet.hedge, fleet.breaker) == (None,) * 3

    def test_partial_config_leaves_other_seams_alone(self, served):
        fleet = _fleet()
        install_resilience(fleet, ResilienceConfig(
            retry=RetryConfig(max_attempts=2)))
        assert fleet.retry.config.max_attempts == 2
        assert fleet.hedge is None
        assert fleet.breaker is None

    def test_shared_clock_drives_budget_and_breaker(self, served):
        clock = VirtualClock()
        fleet = _fleet()
        install_resilience(fleet, ResilienceConfig(
            retry=RetryConfig(budget_rate=1.0, budget_burst=1.0,
                              max_attempts=10),
            breaker=BreakerConfig()), clock=clock)
        assert fleet.retry.plan(_overloaded(), 0) is not None
        assert fleet.retry.plan(_overloaded(), 0) is None
        clock.advance(1.0)
        assert fleet.retry.plan(_overloaded(), 0) is not None


class TestFleetRetryIntegration:
    def test_predict_rides_through_transient_overload(self, served):
        model, problem = served
        fleet = _fleet(shards=1, replicas=1)
        fleet.register_model("m", model, problem)
        install_resilience(fleet, ResilienceConfig(retry=RetryConfig(
            max_attempts=5, base_backoff_s=0.001, max_backoff_s=0.002)))
        shard = fleet.shards[0]
        real = shard.server.submit
        fails = {"n": 0}

        def flaky(*args, **kwargs):
            if fails["n"] < 2:
                fails["n"] += 1
                raise ServerOverloaded("m", None, 9, 9)
            return real(*args, **kwargs)

        shard.server.submit = flaky
        omega = np.linspace(0.2, 0.8, 4)
        with fleet:
            u = fleet.predict("m", omega, timeout=30)
        np.testing.assert_allclose(
            u, predict_batch(model, problem, omega)[0], atol=1e-12)
        s = fleet.stats
        # Every attempt individually conserved: 3 submits, 2 rejected,
        # 1 served, 2 retried, lost == 0.
        assert s.submitted == 3
        assert s.rejected == 2
        assert s.served == 1
        assert s.retried == 2
        assert s.lost == 0

    def test_retry_budget_caps_the_storm(self, served):
        model, problem = served
        fleet = _fleet(shards=1, replicas=1)
        fleet.register_model("m", model, problem)
        install_resilience(fleet, ResilienceConfig(retry=RetryConfig(
            max_attempts=50, base_backoff_s=0.001, max_backoff_s=0.002,
            budget_rate=0.001, budget_burst=1.0)))
        shard = fleet.shards[0]

        def always_full(*args, **kwargs):
            raise ServerOverloaded("m", None, 9, 9)

        shard.server.submit = always_full
        with fleet:
            with pytest.raises(ServerOverloaded):
                fleet.predict("m", np.zeros(4), timeout=30)
        # One retry granted by the burst, then the empty bucket (not
        # max_attempts) ended the loop.
        assert fleet.stats.retried == 1
        assert fleet.retry.denied == 1
        assert fleet.stats.lost == 0

    def test_throttled_request_retries_after_quota_refills(self, served):
        model, problem = served
        fleet = _fleet(shards=1, replicas=1)
        fleet.register_model("m", model, problem)
        fleet.admission = AdmissionController(
            TenantQuota(rate=200.0, burst=1.0))
        install_resilience(fleet, ResilienceConfig(retry=RetryConfig(
            max_attempts=5)))
        with fleet:
            fleet.predict("m", np.zeros(4), tenant="t", timeout=30)
            # Bucket now empty: the second predict is throttled, waits
            # retry_after_s (~5 ms at rate 200), then succeeds.
            fleet.predict("m", np.ones(4), tenant="t", timeout=30)
        s = fleet.stats
        assert s.throttled >= 1
        assert s.retried >= 1
        assert s.served == 2
        assert s.lost == 0

    def test_non_retryable_error_raises_immediately(self, served):
        model, problem = served
        fleet = _fleet(shards=1, replicas=1)
        fleet.register_model("m", model, problem)
        install_resilience(fleet)
        with fleet:
            with pytest.raises(ValueError):
                fleet.predict("m", np.zeros(7), timeout=30)   # wrong arity
        assert fleet.stats.retried == 0
        assert fleet.stats.lost == 0


class TestFleetHedgeIntegration:
    def _hot_primary_fleet(self, served, hot_delay_s=0.25):
        model, problem = served
        fleet = _fleet(shards=2, replicas=2)
        fleet.register_model("m", model, problem)
        primary_id, _ = fleet.replicas_for("m")
        by_id = {s.id: s for s in fleet.shards}
        hot = by_id[primary_id].server
        forward = hot._forward

        def slow(entry, omegas, resolution):
            time.sleep(hot_delay_s)
            return forward(entry, omegas, resolution)

        hot._forward = slow
        return fleet, model, problem

    def test_timer_hedge_beats_slow_primary(self, served):
        fleet, model, problem = self._hot_primary_fleet(served)
        install_resilience(fleet, ResilienceConfig(hedge=HedgeConfig(
            max_delay_s=0.01)))     # pre-warmup: hedge fires at 10 ms
        omega = np.linspace(0.2, 0.8, 4)
        with fleet:
            t0 = time.perf_counter()
            u = fleet.predict("m", omega, timeout=30)
            elapsed = time.perf_counter() - t0
        np.testing.assert_allclose(
            u, predict_batch(model, problem, omega)[0], atol=1e-12)
        s = fleet.stats
        assert s.hedges == 1
        assert s.hedged_wins == 1
        assert s.served == 1                 # first answer won exactly once
        assert s.lost == 0
        assert elapsed < 0.25                # did not wait out the primary

    def test_direct_hedge_dispatch_is_deterministic(self, served):
        fleet, model, problem = self._hot_primary_fleet(served)
        # max_delay_s far beyond the test: the timer never fires, the
        # test owns the dispatch moment.
        fleet.hedge = HedgePolicy(HedgeConfig(max_delay_s=30.0))
        with fleet:
            future = fleet.submit("m", np.linspace(0.2, 0.8, 4))
            assert fleet.hedge_dispatch(future) is True
            assert fleet.hedge_dispatch(future) is False   # already hedged
            fleet.await_result(future, timeout=30)
        s = fleet.stats
        assert s.hedges == 1
        assert s.hedged_wins == 1
        assert fleet.hedge.wins == 1
        assert s.lost == 0

    def test_hedge_dispatch_refuses_done_future(self, served):
        model, problem = served
        fleet = _fleet(shards=2, replicas=2)
        fleet.register_model("m", model, problem)
        fleet.hedge = HedgePolicy(HedgeConfig(max_delay_s=30.0))
        with fleet:
            future = fleet.submit("m", np.linspace(0.2, 0.8, 4))
            fleet.await_result(future, timeout=30)
            assert fleet.hedge_dispatch(future) is False
        assert fleet.stats.hedges == 0

    def test_queued_hedge_loser_is_cancelled(self, served):
        """When the primary answers first, a hedge still waiting in the
        backup's queue is shed before it burns a worker slot."""
        model, problem = served
        fleet = _fleet(shards=2, replicas=2)
        fleet.register_model("m", model, problem)
        fleet.hedge = HedgePolicy(HedgeConfig(max_delay_s=30.0))
        _, replica_id = fleet.replicas_for("m")
        by_id = {s.id: s for s in fleet.shards}
        backup = by_id[replica_id].server
        forward = backup._forward

        def slow(entry, omegas, resolution):
            time.sleep(0.3)
            return forward(entry, omegas, resolution)

        backup._forward = slow
        with fleet:
            # Occupy the backup's only worker so the hedge inner queues.
            blocker = backup.submit("m", np.zeros(4))
            time.sleep(0.05)                 # let the blocker start
            future = fleet.submit("m", np.linspace(0.2, 0.8, 4))
            assert fleet.hedge_dispatch(future) is True
            fleet.await_result(future, timeout=30)
            blocker.result(timeout=30)
        s = fleet.stats
        assert s.hedges == 1
        assert s.hedged_wins == 0            # the fast primary won
        assert s.hedge_cancels == 1          # the queued loser was shed
        assert fleet.hedge.cancels == 1
        assert s.lost == 0


class TestFleetBreakerIntegration:
    def test_open_circuit_reorders_but_never_drops(self, served):
        model, problem = served
        fleet = _fleet(shards=2, replicas=2)
        fleet.register_model("m", model, problem)
        install_resilience(fleet, ResilienceConfig(
            breaker=BreakerConfig(failure_threshold=1,
                                  reset_after_s=60.0)))
        primary_id, _ = fleet.replicas_for("m")
        fleet.breaker.record_failure(("m", primary_id))
        assert fleet.breaker.state(("m", primary_id)) == "open"
        omega = np.linspace(0.2, 0.8, 4)
        with fleet:
            u = fleet.predict("m", omega, timeout=30)
        np.testing.assert_allclose(
            u, predict_batch(model, problem, omega)[0], atol=1e-12)
        s = fleet.stats
        assert s.breaker_open >= 1           # the deflection was counted
        assert s.served == 1
        assert s.lost == 0

    def test_faulting_shard_trips_its_circuit(self, served):
        model, problem = served
        fleet = _fleet(shards=2, replicas=2)
        fleet.register_model("m", model, problem)
        install_resilience(fleet, ResilienceConfig(
            breaker=BreakerConfig(failure_threshold=1)))
        primary_id, _ = fleet.replicas_for("m")
        by_id = {s.id: s for s in fleet.shards}

        def dead(*args, **kwargs):
            raise ConnectionError("host down")

        by_id[primary_id].server.submit = dead
        with fleet:
            fleet.predict("m", np.linspace(0.2, 0.8, 4), timeout=30)
        assert fleet.breaker.state(("m", primary_id)) == "open"
        assert fleet.breaker.trips == 1
        s = fleet.stats
        assert s.failovers == 1
        assert s.served == 1
        assert s.lost == 0

    def test_answer_closes_the_circuit_again(self, served):
        model, problem = served
        clock = VirtualClock()
        fleet = _fleet(shards=2, replicas=2)
        fleet.register_model("m", model, problem)
        install_resilience(fleet, ResilienceConfig(
            breaker=BreakerConfig(failure_threshold=1, reset_after_s=0.5)),
            clock=clock)
        primary_id, _ = fleet.replicas_for("m")
        key = ("m", primary_id)
        fleet.breaker.record_failure(key)
        clock.advance(0.5)
        assert fleet.breaker.tick() == [key]         # half-open trial due
        with fleet:
            fleet.predict("m", np.linspace(0.2, 0.8, 4), timeout=30)
        # The primary answered its trial: circuit closed, resets counted.
        assert fleet.breaker.state(key) == "closed"
        assert fleet.breaker.resets == 1
        assert fleet.stats.lost == 0


class TestResilienceStorm:
    def test_conservation_with_full_stack_under_faults(self, served):
        """Kill + restore mid-storm with retry, hedge and breaker all
        installed: every request accounted, lost == 0."""
        model, problem = served
        fleet = _fleet(shards=3, replicas=2)
        fleet.register_model("m", model, problem)
        install_resilience(fleet, ResilienceConfig(
            retry=RetryConfig(max_attempts=4, base_backoff_s=0.001,
                              max_backoff_s=0.01),
            hedge=HedgeConfig(max_delay_s=0.05),
            breaker=BreakerConfig(failure_threshold=2, reset_after_s=0.2)))
        victim = fleet.shards[0]
        real = victim.server.submit

        def dead(*args, **kwargs):
            raise ConnectionError("scripted kill")

        omegas = np.random.default_rng(3).uniform(-1, 1, size=(30, 4))
        with fleet:
            for i, w in enumerate(omegas):
                if i == 5:
                    victim.server.submit = dead
                if i == 20:
                    victim.server.submit = real
                fleet.predict("m", w, timeout=30)
        s = fleet.stats
        assert s.served == 30
        assert s.lost == 0
        assert s.submitted >= 30


class TestHedgeQuantileHygiene:
    """Regression: the hedge window must see *service* latency.

    The old delivery path fed ``now - state.submitted_at`` — the
    client-anchored wait — into ``hedge.observe``.  Every hang failover
    and hedged win then folded the dead primary's wait into the sample,
    ratcheting the tracked quantile toward ``max_delay_s`` and turning
    hedging off exactly when it was earning its keep.  Delivery now
    observes ``now - anchor`` (the winning attempt's dispatch stamp),
    and only delivered winners observe at all.
    """

    def _policy(self):
        return HedgePolicy(HedgeConfig(
            quantile=50.0, warmup=1, window=16,
            min_delay_s=1e-4, max_delay_s=10.0))

    def test_observe_anchored_to_attempt_not_submit(self):
        from repro.serve.fleet import _FleetFuture, _RouteState

        fleet = _fleet()
        fleet.hedge = self._policy()
        state = _RouteState("m", np.zeros(4), None, None, None, [])
        state.submitted_at = time.monotonic() - 100.0   # forged: the
        out = _FleetFuture(state)        # client waited out a hung primary
        anchor = time.monotonic() - 0.005  # the replica answered in ~5 ms
        assert fleet._deliver(out, state, result=np.zeros(2),
                              counter="served", anchor=anchor)
        # Client latency keeps the truth: the request *did* wait 100 s.
        assert fleet._latencies[-1] > 99.0
        # The hedge window got the 5 ms service latency, not the wait —
        # were it poisoned, the tracked delay would clamp to max (10 s).
        assert fleet.hedge.delay_s() < 0.1

    def test_failed_delivery_records_no_sample(self):
        from repro.serve.fleet import _FleetFuture, _RouteState

        fleet = _fleet()
        fleet.hedge = self._policy()
        state = _RouteState("m", np.zeros(4), None, None, None, [])
        out = _FleetFuture(state)
        fleet._deliver(out, state, exc=_overloaded(), counter="rejected")
        assert len(fleet.hedge._samples) == 0

    def test_straggler_after_winner_records_no_sample(self):
        from repro.serve.fleet import _FleetFuture, _RouteState

        fleet = _fleet()
        fleet.hedge = self._policy()
        state = _RouteState("m", np.zeros(4), None, None, None, [])
        out = _FleetFuture(state)
        assert fleet._deliver(out, state, result=np.zeros(2),
                              counter="served", anchor=time.monotonic())
        # The losing attempt resolves later: delivered-guard bounces it
        # before it can observe (or double-count).
        assert not fleet._deliver(out, state, result=np.zeros(2),
                                  counter="served",
                                  anchor=time.monotonic() - 50.0)
        assert len(fleet.hedge._samples) == 1
