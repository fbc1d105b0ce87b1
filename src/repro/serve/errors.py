"""Keyed serving errors: every rejection names the request it rejects.

The serving front-ends fail requests for reasons the *client* must be
able to tell apart programmatically — an expired deadline (the budget
was too short), an overloaded queue (too many requests outstanding) —
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
           "FleetUnavailable", "VERDICTS", "verdict"]


def _key_digest(key: tuple | None) -> str:
    """:func:`~repro.serve.cache.key_digest` of a request's cache key: the
    raw key embeds the full quantized ω, too noisy for a log line."""
    return key_digest(key) if key is not None else "unkeyed"


class ServeError(RuntimeError):
    """Base class for keyed serving rejections."""


class DeadlineExceeded(ServeError, TimeoutError):
    """A request's latency budget ran out before its fused forward.

    Raised through the request's future by the scheduling layer; the
    compute was *never started*, so an expired request costs the server
    only its queue slot.  Also a :class:`TimeoutError`, so generic
    timeout handling in clients catches it.
    """

    def __init__(self, model_name: str, key: tuple | None,
                 deadline_s: float, waited_s: float) -> None:
        self.model_name = model_name
        self.key_digest = _key_digest(key)
        self.deadline_s = float(deadline_s)
        self.waited_s = float(waited_s)
        super().__init__(
            f"request {self.key_digest} for model {model_name!r} expired: "
            f"waited {waited_s * 1e3:.1f} ms against a deadline of "
            f"{deadline_s * 1e3:.1f} ms without entering a fused forward")


class ServerOverloaded(ServeError):
    """The bounded request queue is full (``max_pending`` reached).

    Raised synchronously by ``submit`` — backpressure must reach the
    caller *before* the request consumes server state.  A client that
    keeps at most ``max_pending`` requests outstanding never sees it
    from one server.
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


class FleetUnavailable(ServeError):
    """Every replica shard for a request's routing key is down.

    Raised by :class:`~repro.serve.fleet.ShardedFleet` when routing
    exhausts the key's replica set — each shard either unhealthy at
    dispatch time or faulted while serving the request.  The verdict is
    the request's; the key is not lost: the next read of it makes a last
    pass that ignores health marks, and a shard that answers it (or an
    operator's ``check_health()`` probe) is re-admitted.  The attempted replica order is carried for
    log correlation.
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
# ``FleetStats`` counts and the request's root span carries; attempt
# spans say ``error`` where the ledger says ``errors`` (the golden trace
# pins both spellings).  First match wins, so the specific
# ``ServeError`` subclasses must stay above the catch-all row.
VERDICTS = (
    ((ServerOverloaded,), "rejected", "rejected"),      # backpressure
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
