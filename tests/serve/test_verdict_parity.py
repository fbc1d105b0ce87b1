"""One verdict table: unary and stream reads classify a shard's
exception identically.

``repro.serve.errors.verdict`` is the only place an exception becomes a
conservation-law term.  The parity test drives one stub shard that
raises each exception class in turn — synchronously from ``submit`` /
``submit_stream``, and asynchronously through the attempt future /
``next_record`` — and checks the unary and the stream path count the
*same* ``FleetStats`` term, stamp the paired root-span outcome, eject
the shard only when there is no verdict (a shard fault), and conserve
the request.

``CancelledError`` has a row but no parity case: a cancelled unary
attempt is a shed hedge loser, so it reaches no verdict at all — the
request moves to the next replica without ejecting anyone (pinned by
the hedging tests in ``test_resilience.py``).
"""

from concurrent.futures import CancelledError, Future

import numpy as np
import pytest

from repro import MGDiffNet, PoissonProblem2D
from repro.serve import (
    DeadlineExceeded, FleetConfig, FleetUnavailable, RegistryError,
    ServeError, ServerConfig, ServerOverloaded, ShardedFleet, Telemetry,
    errors,
)
from repro.serve.errors import VERDICTS, verdict

CASES = {
    "overloaded": lambda: ServerOverloaded("m", None, pending=1,
                                           max_pending=1),
    "deadline": lambda: DeadlineExceeded("m", None, deadline_s=0.1,
                                         waited_s=0.2),
    "unavailable": lambda: FleetUnavailable("m", ["shard-xx"]),
    "serve_error": lambda: ServeError("keyed rejection"),
    "value_error": lambda: ValueError("bad omega"),
    "registry_error": lambda: RegistryError("no such model"),
    "fault": lambda: RuntimeError("boom"),
}


@pytest.fixture(scope="module")
def served():
    return (MGDiffNet(ndim=2, base_filters=4, depth=1, rng=1),
            PoissonProblem2D(16))


class _FailedSource:
    """A stream handle whose first record is the exception."""

    tile_indices = (0,)

    def __init__(self, exc):
        self._exc = exc

    def next_record(self, timeout=None):
        raise self._exc

    def close(self):
        pass


def _stub(server, exc, sync):
    """Make every read on ``server`` end in ``exc``."""
    def submit(*args, **kwargs):
        if sync:
            raise exc
        future = Future()
        future.set_exception(exc)
        return future

    def submit_stream(*args, **kwargs):
        if sync:
            raise exc
        return _FailedSource(exc)

    server.submit, server.submit_stream = submit, submit_stream


def _run(served, exc, sync, read):
    """One read against a 2-replica fleet whose primary always raises
    ``exc``.  Returns (term counted, root-span outcome, primary still
    healthy, lost)."""
    model, problem = served
    fleet = ShardedFleet(FleetConfig(
        shards=2, replicas=2, server=ServerConfig(workers=1, cache_bytes=0)))
    fleet.register_model("m", model, problem)
    telemetry = Telemetry()
    fleet.enable_telemetry(telemetry)
    primary = fleet._by_id[fleet.replicas_for("m")[0]]
    _stub(primary.server, exc, sync)
    before = fleet.stats
    omega = np.full(problem.field.m, 0.25)
    try:
        if read == "unary":
            fleet.submit("m", omega).result(timeout=30)
        else:
            list(fleet.stream("m", omega))
    except type(exc) as raised:
        assert raised is exc        # the verdict is delivered as it is
    after = fleet.stats
    terms = [t for t in ("served", "rejected", "expired", "errors",
                         "cancelled", "unavailable")
             if getattr(after, t) - getattr(before, t)]
    assert len(terms) == 1 and after.submitted - before.submitted == 1
    root = "fleet.request" if read == "unary" else "fleet.stream"
    (span,) = [s for s in telemetry.tracer.spans() if s.name == root]
    return terms[0], span.attrs["outcome"], primary.healthy, after.lost


@pytest.mark.parametrize("sync", [True, False], ids=["sync", "async"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_unary_and_stream_agree_with_the_table(served, case, sync):
    exc = CASES[case]()
    # A fault has no verdict: the shard is ejected and the replica
    # serves the request.
    term, label = verdict(exc) or ("served", "served")
    u_term, u_outcome, u_healthy, u_lost = _run(served, exc, sync, "unary")
    s_term, s_outcome, s_healthy, s_lost = _run(served, exc, sync, "stream")
    assert u_term == s_term == term
    # The request root says the ledger's word; the stream root says the
    # span label (``error`` for ``errors``) — the golden trace pins both.
    assert (u_outcome, s_outcome) == (term, label)
    assert u_healthy == s_healthy == (verdict(exc) is not None)
    assert u_lost == s_lost == 0


def test_every_serve_error_has_an_explicit_row():
    listed = {cls for types, _, _ in VERDICTS for cls in types}
    serve_errors = [getattr(errors, name) for name in errors.__all__
                    if isinstance(getattr(errors, name), type)
                    and issubclass(getattr(errors, name), ServeError)]
    assert len(serve_errors) >= 4
    for cls in serve_errors:
        assert cls in listed, f"{cls.__name__} has no row in VERDICTS"


def test_specific_rows_win_over_the_serve_error_catch_all():
    assert verdict(CASES["deadline"]()) == ("expired", "expired")
    assert verdict(CASES["unavailable"]()) == ("unavailable", "unavailable")
    assert verdict(CASES["serve_error"]()) == ("errors", "error")
    assert verdict(CancelledError()) == ("cancelled", "cancelled")
    assert verdict(TimeoutError()) is None      # a hang is a shard fault
    assert verdict(KeyError("x")) is None
