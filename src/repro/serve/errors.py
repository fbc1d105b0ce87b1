"""Keyed serving errors: every rejection names the request it rejects.

The serving front-ends fail requests for reasons the *client* must be
able to tell apart programmatically — an expired deadline is retryable
with a longer budget, an overloaded queue is retryable after backoff,
and both are distinct from a genuinely broken request (``ValueError``)
or a broken model (``RegistryError``).  Mirroring ``CheckpointError``,
each error spells out the offending request (model name, cache key
digest, the limit it hit) instead of surfacing a bare string.
"""

from __future__ import annotations

from concurrent.futures import CancelledError

from .cache import key_digest
from .registry import RegistryError

__all__ = ["ServeError", "DeadlineExceeded", "ServerOverloaded",
           "TenantThrottled", "FleetUnavailable", "VERDICTS", "verdict"]


def _key_digest(key: tuple | None) -> str:
    """Digest of a request's cache key for error messages.

    The raw key embeds the full quantized ω tuple — too noisy for a log
    line — but the shared :func:`~repro.serve.cache.key_digest` lets
    operators correlate an error with its cache/spill entry exactly
    (spill file names embed the identical digest).
    """
    return key_digest(key) if key is not None else "unkeyed"


class ServeError(RuntimeError):
    """Base class for keyed serving rejections."""


class DeadlineExceeded(ServeError, TimeoutError):
    """A request's latency budget ran out before its fused forward.

    Raised through the request's future by the scheduling layer; the
    compute was *never started*, so an expired request costs the server
    only its queue slot.  Also a :class:`TimeoutError`, so generic
    timeout handling in clients catches it.

    A *streaming* request can expire mid-delivery: ``tiles_delivered``
    then counts the tile records the consumer already received, so a
    progressive client knows exactly how much of the field it holds.
    """

    def __init__(self, model_name: str, key: tuple | None,
                 deadline_s: float, waited_s: float,
                 tiles_delivered: int | None = None) -> None:
        self.model_name = model_name
        self.key_digest = _key_digest(key)
        self.deadline_s = float(deadline_s)
        self.waited_s = float(waited_s)
        self.tiles_delivered = (
            None if tiles_delivered is None else int(tiles_delivered))
        suffix = ("" if self.tiles_delivered is None else
                  f" ({self.tiles_delivered} stream tiles delivered)")
        super().__init__(
            f"request {self.key_digest} for model {model_name!r} expired: "
            f"waited {waited_s * 1e3:.1f} ms against a deadline of "
            f"{deadline_s * 1e3:.1f} ms without entering a fused forward"
            + suffix)


class ServerOverloaded(ServeError):
    """The bounded request queue is full (``max_pending`` reached).

    Raised synchronously by ``submit`` — backpressure must reach the
    caller *before* the request consumes server state, so clients can
    shed or retry with backoff.
    """

    def __init__(self, model_name: str, key: tuple | None,
                 pending: int, max_pending: int) -> None:
        self.model_name = model_name
        self.key_digest = _key_digest(key)
        self.pending = int(pending)
        self.max_pending = int(max_pending)
        super().__init__(
            f"request {self.key_digest} for model {model_name!r} rejected: "
            f"{pending} requests already pending >= max_pending="
            f"{max_pending}")


class TenantThrottled(ServeError):
    """A tenant's token bucket is empty (admission control, not load).

    Raised synchronously by ``submit`` when an
    :class:`~repro.serve.control.admission.AdmissionController` is
    installed and the request's tenant has exhausted its quota.  Unlike
    :class:`ServerOverloaded` this is *per-tenant* policy: the server
    may be idle — the tenant has simply spent its budget.  Retryable
    after ``retry_after_s`` (when the bucket will hold one token again).
    """

    def __init__(self, model_name: str, tenant: str,
                 retry_after_s: float, rate: float, burst: float) -> None:
        self.model_name = model_name
        self.tenant = tenant
        self.retry_after_s = float(retry_after_s)
        self.rate = float(rate)
        self.burst = float(burst)
        super().__init__(
            f"tenant {tenant!r} throttled on model {model_name!r}: "
            f"token bucket empty (rate={rate:g}/s, burst={burst:g}); "
            f"retry after {self.retry_after_s * 1e3:.1f} ms")


class FleetUnavailable(ServeError):
    """Every replica shard for a request's routing key is down.

    Raised by :class:`~repro.serve.fleet.ShardedFleet` when routing
    exhausts the key's replica set — each shard either unhealthy at
    dispatch time or faulted while serving the request.  Retryable after
    shards recover (``check_health`` re-admits probed shards); the
    attempted replica order is carried for log correlation.
    """

    def __init__(self, model_name: str, attempted: list[str]) -> None:
        self.model_name = model_name
        self.attempted = list(attempted)
        super().__init__(
            f"request for model {model_name!r} failed on every replica "
            f"shard (attempted {self.attempted}); fleet unavailable for "
            f"this key until a shard is re-admitted")


# The one place an exception becomes an outcome: each row is (exception
# types, conservation-law term, span outcome label).  The term is what
# ``FleetStats`` counts and the request's root span carries; attempt and
# stream spans say ``error`` where the ledger says ``errors`` (the
# golden trace pins both spellings).  First match wins, so the specific
# ``ServeError`` subclasses must stay above the catch-all row.
VERDICTS = (
    ((ServerOverloaded,), "rejected", "rejected"),      # backpressure
    ((TenantThrottled,), "throttled", "throttled"),     # tenant quota
    ((DeadlineExceeded,), "expired", "expired"),
    ((FleetUnavailable,), "unavailable", "unavailable"),
    ((CancelledError,), "cancelled", "cancelled"),
    ((ServeError, ValueError, RegistryError), "errors", "error"),
)


def verdict(exc: BaseException) -> tuple[str, str] | None:
    """``(term, span label)`` of a request-level exception.

    Policy verdicts and request errors belong to the caller and are
    delivered as they are.  ``None`` means the exception says nothing
    about the request: it is a *shard fault* — eject and fail over.
    """
    for types, term, label in VERDICTS:
        if isinstance(exc, types):
            return term, label
    return None
