"""Token-bucket invariants on a forged clock (hypothesis-driven).

:class:`repro.serve.resilience.TokenBucket` is the one lazy bucket behind
both the retry budget (:class:`RetryPolicy`) and per-tenant admission
(:class:`AdmissionController`).  Three properties:

* **the brake** — over *any* window of ``t`` seconds the granted cost
  never exceeds ``burst + rate * t``, whatever the arrival pattern;
* **an honest refusal** — the wait a refusal returns is when the next
  ``take`` succeeds: refused just before it, granted at it (up to the
  one-ulp rounding of ``(cost - tokens) / rate * rate``);
* **same decisions as before the bucket was shared** — the two
  hand-written refills it replaced (kept below, verbatim arithmetic, as
  the oracle) make bitwise-identical decisions on any recorded
  ``(now, cost)`` sequence, and the retry delays are the same floats
  ``rng.uniform(0, window)`` drew, one draw per grant.
"""

from __future__ import annotations

import copy
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import (
    AdmissionController, RetryConfig, RetryPolicy, ServerOverloaded,
    TenantQuota, VirtualClock,
)
from repro.serve.resilience import TokenBucket, backoff_window, jittered

RATES = st.floats(min_value=0.05, max_value=200.0)
BURSTS = st.floats(min_value=1.0, max_value=50.0)
# (seconds since the previous decision, tokens asked for)
STEPS = st.lists(
    st.tuples(st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=5.0)),
              st.floats(min_value=0.1, max_value=3.0)),
    min_size=1, max_size=60)


@settings(max_examples=200, deadline=None)
@given(rate=RATES, burst=BURSTS, steps=STEPS)
def test_grants_over_any_window_stay_under_the_ceiling(rate, burst, steps):
    bucket = TokenBucket(rate, burst)
    now, grants = 0.0, []
    for dt, cost in steps:
        now += dt
        if bucket.take(now, cost) is None:
            grants.append((now, cost))
    for i, (t0, _) in enumerate(grants):
        spent = 0.0
        for t1, cost in grants[i:]:
            spent += cost
            assert spent <= (burst + rate * (t1 - t0)) * (1 + 1e-9)


@settings(max_examples=200, deadline=None)
@given(rate=RATES, burst=BURSTS, steps=STEPS)
def test_a_refusal_names_when_the_next_take_succeeds(rate, burst, steps):
    bucket = TokenBucket(rate, burst)
    now = 0.0
    for dt, cost in steps:
        now += dt
        cost = min(cost, burst)           # more than a full bucket never fits
        wait = bucket.take(now, cost)
        if wait is None:
            continue
        assert wait > 0.0
        # A refusal spends nothing...
        assert copy.copy(bucket).take(now, cost) == wait
        # ...waiting the named time is enough (give or take an ulp)...
        assert copy.copy(bucket).take(
            now + wait * (1 + 1e-9) + 1e-9, cost) is None
        # ...and anything noticeably shorter is not.
        if wait > 1e-6:
            assert copy.copy(bucket).take(now + 0.99 * wait, cost) is not None


# --------------------------------------------------------------------- #
# The two refills TokenBucket replaced, kept as the decision oracle
# --------------------------------------------------------------------- #
def _old_admission(rate: float, burst: float, decisions):
    """``AdmissionController.try_acquire`` before the shared bucket."""
    tokens = updated_at = None
    for now, cost in decisions:
        if tokens is None:
            tokens, updated_at = burst, now
        elapsed = max(0.0, now - updated_at)
        tokens = min(burst, tokens + elapsed * rate)
        updated_at = now
        if tokens >= cost:
            tokens -= cost
            yield None, tokens
        else:
            yield (cost - tokens) / rate, tokens


def _old_retry_budget(cfg: RetryConfig, failures):
    """``RetryPolicy.plan`` (budget + jitter) before the shared bucket."""
    rng = random.Random(cfg.seed)
    tokens, updated_at = float(cfg.budget_burst), None
    for now, attempt in failures:
        if updated_at is not None:
            elapsed = max(0.0, now - updated_at)
            tokens = min(cfg.budget_burst, tokens + elapsed * cfg.budget_rate)
        updated_at = now
        if tokens < 1.0:
            yield None, tokens
            continue
        tokens -= 1.0
        window = min(cfg.max_backoff_s, cfg.base_backoff_s * 2.0 ** attempt)
        yield rng.uniform(0.0, window), tokens


@settings(max_examples=200, deadline=None)
@given(rate=RATES, burst=BURSTS, steps=STEPS)
def test_admission_replays_the_old_decisions(rate, burst, steps):
    now, decisions = 0.0, []
    for dt, cost in steps:
        now += dt
        decisions.append((now, cost))
    clock = VirtualClock()
    ctrl = AdmissionController(TenantQuota(rate, burst), clock=clock)
    for (dt, cost), (retry_after, tokens) in zip(
            steps, _old_admission(rate, burst, decisions)):
        clock.advance(dt)
        assert ctrl.try_acquire("t", cost) == retry_after
        assert ctrl.snapshot()["t"]["tokens"] == tokens


@settings(max_examples=200, deadline=None)
@given(rate=RATES, burst=BURSTS, seed=st.integers(0, 2 ** 16),
       steps=st.lists(st.tuples(st.floats(min_value=0.0, max_value=2.0),
                                st.integers(0, 12)),
                      min_size=1, max_size=60))
def test_retry_budget_replays_the_old_decisions(rate, burst, seed, steps):
    cfg = RetryConfig(max_attempts=100, budget_rate=rate, budget_burst=burst,
                      seed=seed)
    now, failures = 0.0, []
    for dt, attempt in steps:
        now += dt
        failures.append((now, attempt))
    policy = RetryPolicy(cfg, clock=VirtualClock())
    exc = ServerOverloaded("m", None, 9, 9)
    for (now, attempt), (delay, tokens) in zip(
            failures, _old_retry_budget(cfg, failures)):
        assert policy.plan(exc, attempt, now=now) == delay
        assert policy.tokens == tokens


@settings(max_examples=200, deadline=None)
@given(base=st.floats(min_value=1e-4, max_value=1.0),
       factor=st.floats(min_value=1.0, max_value=100.0),
       n=st.integers(0, 40), seed=st.integers(0, 2 ** 16))
def test_full_jitter_is_the_uniform_draw(base, factor, n, seed):
    """``jittered(w, rng)`` at the default ``jitter=1`` is the float
    ``rng.uniform(0, w)`` returns and consumes one draw; ``jitter=0`` is
    the exact window and consumes none."""
    window = backoff_window(base, base * factor, n)
    assert window == min(base * factor, base * 2.0 ** n)
    a, b = random.Random(seed), random.Random(seed)
    assert jittered(window, a) == b.uniform(0.0, window)
    assert jittered(window, a, jitter=0.0) == window
    assert a.random() == b.random()       # streams still in step
