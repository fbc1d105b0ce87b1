"""Per-tenant admission control: token buckets above backpressure.

``max_pending`` protects the *server* — it bounds total queued work but
is blind to who queued it, so one greedy tenant can fill the queue and
starve everyone into ``ServerOverloaded``.  Admission control protects
the *tenants from each other*: each tenant owns a token bucket refilled
at ``rate`` tokens/s up to ``burst`` capacity, a submit spends one
token, and an empty bucket raises a keyed
:class:`~repro.serve.errors.TenantThrottled` carrying ``retry_after_s``
(when the bucket will next hold a token) — the polite client sleeps
exactly that long instead of hammering.

The controller is pure policy: no threads, no background refill — each
tenant's :class:`~repro.serve.resilience.TokenBucket` (the same class
that meters the retry budget) is refilled lazily from the elapsed clock
at each ``try_acquire``, so an injected clock makes every decision
deterministic under test.  Thread-safe: fleets call ``try_acquire``
from many client threads at once.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable

from ..resilience import TokenBucket

__all__ = ["TenantQuota", "AdmissionController"]


@dataclass(frozen=True)
class TenantQuota:
    """One tenant's budget: sustained ``rate`` req/s, ``burst`` capacity."""

    rate: float    # tokens (requests) refilled per second
    burst: float   # bucket capacity: max requests admitted back-to-back

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        if self.burst < 1:
            raise ValueError("burst must be >= 1 (or nothing ever admits)")


class _Tenant:
    __slots__ = ("quota", "bucket", "admitted", "throttled")

    def __init__(self, quota: TenantQuota) -> None:
        self.quota = quota
        self.bucket = TokenBucket(quota.rate, quota.burst)
        self.admitted = 0
        self.throttled = 0


class AdmissionController:
    """Lazy token buckets, one per tenant, under one lock.

    Parameters
    ----------
    default_quota:
        Budget applied to any tenant without an explicit ``set_quota``.
    clock:
        Monotonic-seconds source; injectable for deterministic tests.
    """

    def __init__(self, default_quota: TenantQuota,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.default_quota = default_quota
        self._clock = clock
        self._lock = threading.Lock()
        self._tenants: dict[str, _Tenant] = {}

    def set_quota(self, tenant: str, quota: TenantQuota) -> None:
        """Pin a tenant's budget (resets its bucket to a full burst)."""
        with self._lock:
            self._tenants[tenant] = _Tenant(quota)

    def quota_for(self, tenant: str) -> TenantQuota:
        with self._lock:
            record = self._tenants.get(tenant)
        return record.quota if record is not None else self.default_quota

    def try_acquire(self, tenant: str, cost: float = 1.0) -> float | None:
        """Spend ``cost`` tokens from ``tenant``'s bucket.

        Returns ``None`` on admission, or the seconds until the bucket
        will hold ``cost`` tokens again — the ``retry_after_s`` a
        :class:`~repro.serve.errors.TenantThrottled` carries.
        """
        now = self._clock()
        with self._lock:
            record = self._tenants.get(tenant)
            if record is None:
                record = self._tenants[tenant] = _Tenant(self.default_quota)
            retry_after = record.bucket.take(now, cost)
            if retry_after is None:
                record.admitted += 1
            else:
                record.throttled += 1
            return retry_after

    def snapshot(self) -> dict[str, dict]:
        """Per-tenant accounting: admitted / throttled / tokens left."""
        with self._lock:
            return {tenant: {"admitted": r.admitted,
                             "throttled": r.throttled,
                             "tokens": r.bucket.tokens}
                    for tenant, r in self._tenants.items()}

    @property
    def admitted(self) -> int:
        with self._lock:
            return sum(r.admitted for r in self._tenants.values())

    @property
    def throttled(self) -> int:
        with self._lock:
            return sum(r.throttled for r in self._tenants.values())
