"""Client-side resilience: budgeted retries.

The fleet's server-side machinery (failover, probing, decommissioning)
heals *shards*; this module heals *calls*.  One policy, deterministic
under an injected clock and seed so the chaos suite can pin exact
behavior:

* :class:`RetryPolicy` — seeded exponential backoff with **full jitter**
  (delay drawn uniformly from ``[0, min(cap, base * 2^attempt)]``, the
  AWS-style schedule that de-correlates a thundering herd) behind a
  **token-bucket retry budget**: retries spend from a bucket refilled at
  ``budget_rate`` tokens/s up to ``budget_burst``, so a degraded fleet
  sees at most ``burst + rate * t`` extra requests no matter how many
  callers are failing — retries can never become the storm they are
  meant to ride out.

The mechanisms under the policy are written once, here.
:func:`retry_call` is the only retry loop — ``attempt()`` →
classify → ``policy.plan`` → count → sleep → again — behind
``ShardedFleet.predict``, the replay harness's drain, ``repro predict
--retries`` and the CLI's serve submit/drain; its sleep is injected.
:class:`TokenBucket` is the lazy bucket behind the retry budget;
:func:`backoff_window` / :func:`jittered` are the ``min(cap, base·2ⁿ)``
window and its seeded jitter, shared with the health prober.

Wiring: the fleet has one resilience seam, ``fleet.retry`` (``None`` by
default), set by plain assignment.  Each retry is a fresh,
individually accounted submit, so ``FleetStats.lost == 0`` holds with
retries on, which the replay harness (:mod:`repro.serve.replay`) proves
under scripted storms.  ``enable_telemetry`` names the live seam's
counters ``stats.retry.*``.

Quickstart::

    fleet = ShardedFleet(FleetConfig(shards=4, replicas=2))
    fleet.retry = RetryPolicy(RetryConfig(max_attempts=3, budget_rate=2.0))
    with fleet:
        u = fleet.predict("m", omega)   # transient verdicts retried
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Callable

from .errors import FleetUnavailable, ServerOverloaded

__all__ = [
    "RetryConfig", "RetryPolicy", "TokenBucket", "backoff_window",
    "jittered", "retry_call",
]


# --------------------------------------------------------------------- #
# The token bucket and the backoff window (written once, used by the
# retry budget and the health prober)
# --------------------------------------------------------------------- #
class TokenBucket:
    """Lazy token bucket: ``burst`` capacity refilled at ``rate``/s.

    Pure arithmetic on an injected ``now`` — no clock, no thread, no
    lock (the owner serializes) — so every decision is deterministic
    under a forged clock.  Over any window of ``t`` seconds it grants at
    most ``burst + rate * t`` tokens.
    """

    __slots__ = ("rate", "burst", "tokens", "updated_at")

    def __init__(self, rate: float, burst: float) -> None:
        self.rate = rate
        self.burst = burst
        self.tokens = burst             # starts full
        self.updated_at: float | None = None

    def take(self, now: float, cost: float = 1.0) -> float | None:
        """Spend ``cost`` tokens at time ``now``: ``None`` when granted,
        else the seconds until the bucket will hold ``cost`` again."""
        if self.updated_at is not None:
            elapsed = max(0.0, now - self.updated_at)
            self.tokens = min(self.burst, self.tokens + elapsed * self.rate)
        self.updated_at = now
        if self.tokens >= cost:
            self.tokens -= cost
            return None
        return (cost - self.tokens) / self.rate


def backoff_window(base: float, cap: float, n: int) -> float:
    """Exponential backoff window after ``n`` failures: ``min(cap,
    base * 2**n)``."""
    return min(cap, base * 2.0 ** n)


def jittered(window: float, rng: random.Random, jitter: float = 1.0) -> float:
    """A wait drawn uniformly from ``[(1 - jitter) * window, window]``.

    ``jitter=1`` is AWS-style full jitter — the same float as
    ``rng.uniform(0, window)``, one draw — which de-correlates callers
    that failed together; ``jitter=0`` is the exact window and draws
    nothing.
    """
    if jitter <= 0.0:
        return window
    return window * (1.0 - jitter + jitter * rng.random())


# --------------------------------------------------------------------- #
# Retry: seeded full-jitter backoff under a token-bucket budget
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class RetryConfig:
    """Tunables of one :class:`RetryPolicy`."""

    max_attempts: int = 3        # total tries, the first one included
    base_backoff_s: float = 0.005
    max_backoff_s: float = 0.5
    budget_rate: float = 2.0     # retry tokens refilled per second
    budget_burst: float = 8.0    # bucket capacity: max back-to-back retries
    seed: int = 0                # jitter RNG seed (deterministic replay)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_backoff_s <= 0 or self.max_backoff_s < self.base_backoff_s:
            raise ValueError("need 0 < base_backoff_s <= max_backoff_s")
        if self.budget_rate <= 0 or self.budget_burst < 1:
            raise ValueError("need budget_rate > 0 and budget_burst >= 1")


class RetryPolicy:
    """Decide, per failed attempt, whether and when to try again.

    ``plan(exc, attempt)`` is the whole API: it returns the seconds to
    back off before re-submitting, or ``None`` when the call must give
    up — because the error is not retryable, the attempt budget is
    exhausted, or the *fleet-wide* retry token bucket is empty.  The
    bucket is the storm brake: whatever the failure rate, retries are
    capped at ``budget_burst + budget_rate * t`` over any window of
    ``t`` seconds, so retrying clients shed load instead of amplifying
    it.  Thread-safe; deterministic under an injected clock and seed.

    ``retryable`` (constructor arg) overrides the default
    classification — by default only the transient serving verdicts
    retry (:class:`FleetUnavailable`, :class:`ServerOverloaded`);
    request-level errors (bad ω, unknown model, expired deadline) never
    do.
    """

    def __init__(self, config: RetryConfig | None = None,
                 clock: Callable[[], float] = time.monotonic,
                 retryable: Callable[[BaseException], bool] | None = None
                 ) -> None:
        self.config = config or RetryConfig()
        self._clock = clock
        self._retryable = retryable
        self._rng = random.Random(self.config.seed)
        self._lock = threading.Lock()
        self._budget = TokenBucket(self.config.budget_rate,
                                   float(self.config.budget_burst))
        self.retries = 0       # plans granted
        self.denied = 0        # plans refused by an empty budget
        self.exhausted = 0     # plans refused by max_attempts

    def retryable(self, exc: BaseException) -> bool:
        if self._retryable is not None:
            return self._retryable(exc)
        return isinstance(exc, (FleetUnavailable, ServerOverloaded))

    @property
    def tokens(self) -> float:
        """Current budget level (diagnostics; refilled lazily)."""
        with self._lock:
            return self._budget.tokens

    def budget_ceiling(self, window_s: float) -> float:
        """Most retries the budget can possibly grant in ``window_s``."""
        cfg = self.config
        return cfg.budget_burst + cfg.budget_rate * max(0.0, window_s)

    def plan(self, exc: BaseException, attempt: int,
             now: float | None = None) -> float | None:
        """Seconds to back off before retry ``attempt + 1``, or ``None``.

        ``attempt`` is the 0-based index of the attempt that just
        failed.  A granted plan spends one budget token; the delay is
        full-jittered.
        """
        if not self.retryable(exc):
            return None
        now = self._clock() if now is None else now
        cfg = self.config
        with self._lock:
            if attempt + 1 >= cfg.max_attempts:
                self.exhausted += 1
                return None
            if self._budget.take(now) is not None:
                self.denied += 1
                return None
            self.retries += 1
            return jittered(backoff_window(cfg.base_backoff_s,
                                           cfg.max_backoff_s, attempt),
                            self._rng)


def retry_call(policy: RetryPolicy | None, attempt: Callable[[], object], *,
               sleep: Callable[[float], None] = time.sleep,
               on_retry: Callable[[BaseException, float], None] | None = None,
               max_wait_s: float | None = None,
               clock: Callable[[], float] = time.monotonic):
    """The one retry loop: ``attempt()`` until it returns, the
    policy gives up, or the wall-clock cap would be overrun.

    ``attempt`` performs one whole try — submit *and* wait — and raises
    its verdict; a pipelined client that already holds a future passes
    an ``attempt`` whose first call waits on it and whose later calls
    re-submit (the CLI drain and the replay drain each close over what
    they hold — a future-or-``None``, a ``(future, refusal)`` pair — in
    three lines; with two callers holding different things there is no
    shared adapter).  Each failure is put to ``policy.plan`` (``None``
    policy: nothing is retried); a granted delay is announced to
    ``on_retry(exc, delay)`` and slept through the injected ``sleep``.
    With ``max_wait_s``, a delay that would end past that many seconds
    after entry is not slept: the pending verdict propagates.  The cap
    can only be judged once the delay is known, so that last plan is
    already granted — one budget token, one ``policy.retries`` — but it
    is not announced: ``on_retry`` counts exactly the retries made.
    """
    deadline = None if max_wait_s is None else clock() + max_wait_s
    n = 0
    while True:
        try:
            return attempt()
        except Exception as exc:
            delay = None if policy is None else policy.plan(exc, n)
            if delay is None or (deadline is not None
                                 and clock() + delay >= deadline):
                raise
            n += 1
            if on_retry is not None:
                on_retry(exc, delay)
            if delay > 0:
                sleep(delay)
