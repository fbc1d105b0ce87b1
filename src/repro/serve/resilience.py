"""Client-side resilience: retry budgets, hedged reads, circuit breakers.

The fleet's server-side machinery (failover, probing, decommissioning)
heals *shards*; this module heals *calls*.  Three policies, each deterministic
under an injected clock/seed so the chaos suite can pin exact behavior:

* :class:`RetryPolicy` — seeded exponential backoff with **full jitter**
  (delay drawn uniformly from ``[0, min(cap, base * 2^attempt)]``, the
  AWS-style schedule that de-correlates a thundering herd) behind a
  **token-bucket retry budget**: retries spend from a bucket refilled at
  ``budget_rate`` tokens/s up to ``budget_burst``, so a degraded fleet
  sees at most ``burst + rate * t`` extra requests no matter how many
  callers are failing — retries can never become the storm they are
  meant to ride out.
* :class:`HedgePolicy` — tail-latency insurance: after a quantile of the
  observed latency distribution elapses without an answer, issue one
  backup request to a *different* replica; first answer wins, the loser
  is cancelled and counted.  The delay tracks a rolling latency window,
  so hedges fire only for genuinely slow requests (~the slowest
  ``100 - quantile`` percent), bounding the extra load.
* :class:`CircuitBreaker` — per ``(model, shard)`` closed → open →
  half-open state machine: ``failure_threshold`` consecutive faults open
  the circuit, dispatch then prefers other replicas, and after
  ``reset_after_s`` a limited number of half-open trial requests decide
  between closing it and re-opening.  ``tick(now)`` advances due
  transitions deterministically, matching the control plane's forged
  -clock discipline; ``allow`` also performs the transition lazily so no
  background thread is required.

The mechanisms under the policies are written once, here.
:func:`retry_call` is the only retry loop — ``attempt()`` →
classify → ``policy.plan`` → count → sleep → again — behind
``ShardedFleet.predict``, the replay harness's drain, ``repro predict
--retries`` and the CLI's serve submit/drain; its sleep is injected.
:class:`TokenBucket` is the lazy bucket behind the retry budget;
:func:`backoff_window` / :func:`jittered` are the ``min(cap, base·2ⁿ)``
window and its seeded jitter, shared with the health prober.

Wiring: :func:`install_resilience` sets the fleet's ``retry`` / ``hedge``
/ ``breaker`` seams (``None`` by default).  Every new outcome these policies create is folded into
the fleet's conservation law — each retry is a fresh, individually
-accounted submit; a hedge winner counts ``served`` (+``hedged_wins``)
exactly once via the fleet's delivered-guard; a breaker deflection
reorders replicas but never drops a request.  ``FleetStats.lost == 0``
holds with everything switched on, which the replay harness
(:mod:`repro.serve.replay`) proves under scripted storms.

Quickstart::

    fleet = ShardedFleet(FleetConfig(shards=4, replicas=2))
    install_resilience(fleet, ResilienceConfig(
        retry=RetryConfig(max_attempts=3, budget_rate=2.0),
        hedge=HedgeConfig(quantile=95.0),
        breaker=BreakerConfig(failure_threshold=3)))
    with fleet:
        u = fleet.predict("m", omega)   # retried / hedged / breaker-aware
"""

from __future__ import annotations

import heapq
import random
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Hashable

import numpy as np

from .errors import FleetUnavailable, ServerOverloaded

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .fleet import ShardedFleet

__all__ = [
    "RetryConfig", "RetryPolicy", "HedgeConfig", "HedgePolicy",
    "BreakerConfig", "CircuitBreaker", "ResilienceConfig",
    "install_resilience", "uninstall_resilience", "HedgeTimer",
    "TokenBucket", "backoff_window", "jittered", "retry_call",
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


# --------------------------------------------------------------------- #
# Hedging: quantile-tracked backup requests
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class HedgeConfig:
    """Tunables of one :class:`HedgePolicy`."""

    quantile: float = 95.0       # latency percentile that arms the hedge
    min_delay_s: float = 0.001
    max_delay_s: float = 0.25
    window: int = 512            # rolling latency samples tracked
    warmup: int = 16             # below this many samples: max_delay_s

    def __post_init__(self) -> None:
        if not 0.0 < self.quantile < 100.0:
            raise ValueError("quantile must be in (0, 100)")
        if self.min_delay_s <= 0 or self.max_delay_s < self.min_delay_s:
            raise ValueError("need 0 < min_delay_s <= max_delay_s")
        if self.window < 1 or self.warmup < 1:
            raise ValueError("window and warmup must be >= 1")


class HedgePolicy:
    """Track served latencies; say how long to wait before hedging.

    The fleet feeds every served latency to :meth:`observe`; a submit
    arms its hedge at :meth:`delay_s` — the tracked ``quantile`` of the
    rolling window, clamped to ``[min_delay_s, max_delay_s]``.  Until
    ``warmup`` samples exist the delay is ``max_delay_s`` (hedge rarely
    rather than blindly).  Counters: ``hedges`` issued, ``wins`` where
    the backup answered first, ``cancels`` where the loser was shed
    before computing.
    """

    def __init__(self, config: HedgeConfig | None = None) -> None:
        self.config = config or HedgeConfig()
        self._lock = threading.Lock()
        self._samples: deque[float] = deque(maxlen=self.config.window)
        self.hedges = 0
        self.wins = 0
        self.cancels = 0

    def observe(self, latency_s: float) -> None:
        with self._lock:
            self._samples.append(float(latency_s))

    def delay_s(self) -> float:
        cfg = self.config
        with self._lock:
            if len(self._samples) < cfg.warmup:
                return cfg.max_delay_s
            q = float(np.percentile(np.asarray(self._samples), cfg.quantile))
        return min(cfg.max_delay_s, max(cfg.min_delay_s, q))

    def record_hedge(self) -> None:
        with self._lock:
            self.hedges += 1

    def record_win(self) -> None:
        with self._lock:
            self.wins += 1

    def record_cancel(self) -> None:
        with self._lock:
            self.cancels += 1


# --------------------------------------------------------------------- #
# Circuit breaker: per-key closed / open / half-open
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class BreakerConfig:
    """Tunables of one :class:`CircuitBreaker`."""

    failure_threshold: int = 3   # consecutive faults that open a circuit
    reset_after_s: float = 1.0   # open -> half-open cool-down
    half_open_max: int = 1       # concurrent trial requests while half-open

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if self.reset_after_s <= 0:
            raise ValueError("reset_after_s must be positive")
        if self.half_open_max < 1:
            raise ValueError("half_open_max must be >= 1")


class _Circuit:
    __slots__ = ("state", "fails", "opened_at", "trials", "armed_at")

    def __init__(self) -> None:
        self.state = "closed"
        self.fails = 0
        self.opened_at = 0.0
        self.trials = 0      # half-open trial slots handed out
        self.armed_at = 0.0  # when the current trial slots were armed


class CircuitBreaker:
    """Closed/open/half-open circuits, one per hashable key.

    The fleet keys circuits by ``(model name, shard id)``: a shard can
    be broken for one model's replica set and fine for another's.
    ``allow(key)`` answers "may a request go there right now?" —
    ``True`` for closed circuits and for up to ``half_open_max`` trial
    requests once the ``reset_after_s`` cool-down has elapsed; ``False``
    while open.  Outcomes feed back through ``record_success`` (closes)
    and ``record_failure`` (opens / re-opens).  Transitions happen
    lazily inside ``allow`` *and* eagerly in ``tick(now)``, so the
    breaker works both on the hot path and under the control plane's
    deterministic forged-clock loop.  Trial slots burned without an
    outcome (the request went elsewhere) re-arm after another
    ``reset_after_s`` — a half-open circuit can never wedge.
    """

    def __init__(self, config: BreakerConfig | None = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.config = config or BreakerConfig()
        self._clock = clock
        self._lock = threading.Lock()
        self._circuits: dict[Hashable, _Circuit] = {}
        self.trips = 0        # closed/half-open -> open transitions
        self.resets = 0       # open/half-open -> closed transitions
        self.half_opens = 0   # open -> half-open transitions
        self.rejections = 0   # allow() calls answered False

    def _half_open(self, circuit: _Circuit, now: float) -> None:
        circuit.state = "half-open"
        circuit.trials = 0
        circuit.armed_at = now
        self.half_opens += 1

    def allow(self, key: Hashable, now: float | None = None) -> bool:
        """May a request be dispatched under ``key`` right now?"""
        now = self._clock() if now is None else now
        cfg = self.config
        with self._lock:
            circuit = self._circuits.get(key)
            if circuit is None or circuit.state == "closed":
                return True
            if circuit.state == "open":
                if now - circuit.opened_at < cfg.reset_after_s:
                    self.rejections += 1
                    return False
                self._half_open(circuit, now)
            # Half-open: hand out trial slots; re-arm slots that were
            # granted but never produced an outcome.
            if (circuit.trials >= cfg.half_open_max
                    and now - circuit.armed_at >= cfg.reset_after_s):
                circuit.trials = 0
                circuit.armed_at = now
            if circuit.trials < cfg.half_open_max:
                circuit.trials += 1
                return True
            self.rejections += 1
            return False

    def record_success(self, key: Hashable) -> None:
        """An answer arrived under ``key``: close (forget) its circuit."""
        with self._lock:
            circuit = self._circuits.pop(key, None)
            if circuit is not None and circuit.state != "closed":
                self.resets += 1

    def record_failure(self, key: Hashable,
                       now: float | None = None) -> None:
        """A shard fault under ``key``: count toward / re-open its
        circuit (request-level errors must *not* be reported here)."""
        now = self._clock() if now is None else now
        cfg = self.config
        with self._lock:
            circuit = self._circuits.setdefault(key, _Circuit())
            if circuit.state == "open":
                circuit.opened_at = now   # still failing: restart cool-down
                return
            circuit.fails += 1
            if circuit.state == "half-open" \
                    or circuit.fails >= cfg.failure_threshold:
                circuit.state = "open"
                circuit.opened_at = now
                self.trips += 1

    def tick(self, now: float | None = None) -> list[Hashable]:
        """Advance due open -> half-open transitions; transitioned keys.

        The deterministic counterpart of the lazy transition in
        ``allow`` — a control loop can drive the breaker with a forged
        clock exactly like the prober.
        """
        now = self._clock() if now is None else now
        moved: list[Hashable] = []
        with self._lock:
            for key, circuit in self._circuits.items():
                if (circuit.state == "open"
                        and now - circuit.opened_at
                        >= self.config.reset_after_s):
                    self._half_open(circuit, now)
                    moved.append(key)
        return moved

    def state(self, key: Hashable) -> str:
        with self._lock:
            circuit = self._circuits.get(key)
            return "closed" if circuit is None else circuit.state

    def snapshot(self) -> dict[Hashable, str]:
        """Key -> state view of every non-closed circuit."""
        with self._lock:
            return {k: c.state for k, c in self._circuits.items()
                    if c.state != "closed"}


# --------------------------------------------------------------------- #
# Hedge timer: one daemon thread firing scheduled callbacks
# --------------------------------------------------------------------- #
class HedgeTimer:
    """Minimal monotonic-deadline scheduler for hedge dispatches.

    The fleet schedules ``hedge_dispatch(future)`` at ``now + delay``
    per read; one daemon thread pops due entries off a heap and runs
    them.  Tests that want determinism skip the timer entirely and call
    ``fleet.hedge_dispatch`` directly — the timer is only the real-time
    shell, exactly like the control plane's tick thread.
    """

    def __init__(self, name: str = "fleet-hedge-timer") -> None:
        self._heap: list[tuple[float, int, Callable[[], object]]] = []
        self._seq = 0
        self._cond = threading.Condition()
        self._closed = False
        self._thread = threading.Thread(target=self._run, name=name,
                                        daemon=True)
        self._thread.start()

    def schedule(self, when: float, fn: Callable[[], object]) -> None:
        """Run ``fn()`` at monotonic time ``when`` (best effort)."""
        with self._cond:
            if self._closed:
                return
            heapq.heappush(self._heap, (when, self._seq, fn))
            self._seq += 1
            self._cond.notify()

    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._closed and (
                        not self._heap
                        or self._heap[0][0] > time.monotonic()):
                    wait = (None if not self._heap
                            else max(0.0,
                                     self._heap[0][0] - time.monotonic()))
                    self._cond.wait(wait)
                if self._closed:
                    return
                _, _, fn = heapq.heappop(self._heap)
            try:
                fn()
            except Exception:   # pragma: no cover - defensive: a hedge
                pass            # misfire must never kill the timer

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._heap.clear()
            self._cond.notify_all()
        if self._thread is not threading.current_thread():
            self._thread.join(timeout=5.0)


# --------------------------------------------------------------------- #
# Bundle install
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class ResilienceConfig:
    """Which policies to install on a fleet (None = leave that seam)."""

    retry: RetryConfig | None = None
    hedge: HedgeConfig | None = None
    breaker: BreakerConfig | None = None


def install_resilience(fleet: "ShardedFleet",
                       config: ResilienceConfig | None = None,
                       clock: Callable[[], float] = time.monotonic
                       ) -> "ShardedFleet":
    """Construct the configured policies onto the fleet's resilience
    seams (``fleet.retry`` / ``fleet.hedge`` / ``fleet.breaker``).

    With a default config every seam is installed with its policy's own
    defaults.  ``clock`` is shared by the retry budget and the breaker
    so a forged clock drives both deterministically.
    """
    config = config or ResilienceConfig(retry=RetryConfig(),
                                        hedge=HedgeConfig(),
                                        breaker=BreakerConfig())
    if config.retry is not None:
        fleet.retry = RetryPolicy(config.retry, clock=clock)
    if config.hedge is not None:
        fleet.hedge = HedgePolicy(config.hedge)
    if config.breaker is not None:
        fleet.breaker = CircuitBreaker(config.breaker, clock=clock)
    telemetry = getattr(fleet, "telemetry", None)
    if telemetry is not None:
        _register_resilience_views(fleet, telemetry.metrics)
    return fleet


def uninstall_resilience(fleet: "ShardedFleet") -> None:
    """Put the ``None``s back (PR-7 behavior)."""
    fleet.retry = None
    fleet.hedge = None
    fleet.breaker = None


def _register_resilience_views(fleet: "ShardedFleet", registry) -> None:
    """Re-register the resilience policy counters as read-time
    ``stats.retry.* / stats.hedge.* / stats.breaker.*`` metric views.

    The lambdas read the live seams at view-read time, so the views
    survive policies being installed, swapped or uninstalled after
    registration — an empty seam simply reads 0.  Called both by
    :func:`install_resilience` (when the fleet already carries a
    telemetry bundle) and by ``ShardedFleet.enable_telemetry`` (for
    policies installed first); ``register_view`` replaces, so the
    double registration is harmless.
    """
    def seam(name: str, attr: str, default=0):
        def read():
            policy = getattr(fleet, name)
            return getattr(policy, attr) if policy is not None else default
        return read

    for attr in ("retries", "denied", "exhausted"):
        registry.register_view(f"stats.retry.{attr}", seam("retry", attr))
    registry.register_view("stats.retry.tokens",
                           seam("retry", "tokens", 0.0))
    for attr in ("hedges", "wins", "cancels"):
        registry.register_view(f"stats.hedge.{attr}", seam("hedge", attr))
    for attr in ("trips", "resets", "half_opens", "rejections"):
        registry.register_view(f"stats.breaker.{attr}",
                               seam("breaker", attr))
