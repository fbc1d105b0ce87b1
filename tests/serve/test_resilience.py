"""Resilience layer: retry budgets.

Contracts pinned here:

* **Retry policy** — full-jitter backoff windows are honored exactly
  under a seeded RNG and forged clock; the token-bucket budget caps
  retries at ``burst + rate * t`` whatever the failure rate.
* **Retry driver** — ``retry_call`` asks the policy's plans in script
  order and propagates the last verdict.
* **Fleet integration** — the fleet's one resilience seam,
  ``fleet.retry``, is a plain assignment; retries ride through
  transient verdicts with every attempt individually conserved, and a
  killed shard mid-storm loses nothing.  ``FleetStats.lost == 0`` in
  all of it.
"""

from concurrent.futures import Future

import numpy as np
import pytest

from repro import MGDiffNet, PoissonProblem2D
from repro.core.inference import predict_batch
from repro.serve import (
    FleetConfig, RetryConfig, RetryPolicy, ServerConfig, ServerOverloaded,
    ShardedFleet, VirtualClock, retry_call,
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


class TestRetryPolicy:
    def test_non_retryable_returns_none(self):
        clock = VirtualClock()
        policy = RetryPolicy(RetryConfig(), clock=clock)
        assert policy.plan(ValueError("bad omega"), 0) is None
        assert policy.retries == 0

    def test_transient_verdicts_are_retryable_by_default(self):
        policy = RetryPolicy(RetryConfig(), clock=VirtualClock())
        for exc in (_overloaded(), _unavailable()):
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


class _FixedDelay(RetryPolicy):
    """A granted plan backs off exactly ``delay`` seconds (the budget
    and attempt cap still decide whether it is granted)."""

    def __init__(self, delay, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.delay = delay

    def plan(self, exc, attempt, now=None):
        granted = super().plan(exc, attempt, now)
        return None if granted is None else self.delay


class TestRetryDriver:
    """``retry_call`` is the one retry loop: a script in, the ``plan``
    calls in script order, seeded sleeps, ``retried`` out."""

    SCRIPT = (_overloaded, _unavailable, _unavailable, _overloaded,
              lambda: None)

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

    def test_driver_asks_the_plans_in_script_order(self):
        out, backend, slept = self._sync()
        assert out == "field"
        assert backend.retry.asked == [
            ("ServerOverloaded", 0), ("FleetUnavailable", 1),
            ("FleetUnavailable", 2), ("ServerOverloaded", 3)]
        assert len(slept) == backend.retried == backend.retry.retries == 4
        assert self._sync()[2] == slept    # same seed, same jitter draws

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
        policy = _FixedDelay(0.4, RetryConfig(max_attempts=99,
                                              budget_burst=99.0), clock=clock)
        slept = []

        def sleep(dt):
            slept.append(dt)
            clock.advance(dt)

        def attempt():
            raise _overloaded()

        announced = []
        with pytest.raises(ServerOverloaded):
            retry_call(policy, attempt, sleep=sleep, max_wait_s=1.0,
                       clock=clock,
                       on_retry=lambda exc, delay: announced.append(delay))
        assert slept == [0.4, 0.4]         # a third would end at 1.2 s
        assert clock.now == pytest.approx(100.8)
        # The counting hook saw exactly the retries made; the policy had
        # already granted the plan the cap then declined to sleep.
        assert announced == slept
        assert policy.retries == len(slept) + 1


class TestFleetRetryIntegration:
    def test_predict_rides_through_transient_overload(self, served):
        model, problem = served
        fleet = _fleet(shards=1, replicas=1)
        fleet.register_model("m", model, problem)
        fleet.retry = RetryPolicy(RetryConfig(
            max_attempts=5, base_backoff_s=0.001, max_backoff_s=0.002))
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
        fleet.retry = RetryPolicy(RetryConfig(
            max_attempts=50, base_backoff_s=0.001, max_backoff_s=0.002,
            budget_rate=0.001, budget_burst=1.0))
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

    def test_non_retryable_error_raises_immediately(self, served):
        model, problem = served
        fleet = _fleet(shards=1, replicas=1)
        fleet.register_model("m", model, problem)
        fleet.retry = RetryPolicy()
        with fleet:
            with pytest.raises(ValueError):
                fleet.predict("m", np.zeros(7), timeout=30)   # wrong arity
        assert fleet.stats.retried == 0
        assert fleet.stats.lost == 0


class TestResilienceStorm:
    def test_conservation_with_retries_under_faults(self, served):
        """Kill + restore mid-storm with budgeted retries on: every
        request accounted, lost == 0."""
        model, problem = served
        fleet = _fleet(shards=3, replicas=2)
        fleet.register_model("m", model, problem)
        fleet.retry = RetryPolicy(RetryConfig(
            max_attempts=4, base_backoff_s=0.001, max_backoff_s=0.01))
        # Kill the primary, so the storm really lands on the read path.
        victim = fleet._by_id[fleet.replicas_for("m")[0]]
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
        assert s.failovers == s.shard_faults == 1
