"""One verdict table: a shard's exception becomes the same outcome
whether the shard refuses synchronously or through the attempt future.

``repro.serve.errors.verdict`` is the only place an exception becomes a
conservation-law term.  The parity test drives one stub shard that
raises each exception class in turn — synchronously from ``submit``,
and asynchronously through the attempt future — read through both fleet
front-ends (``submit(...).result()`` and the blocking ``predict``, which
is ``submit(...).result(timeout)`` too), and checks every combination counts
the *same* ``FleetStats`` term, stamps the paired root- and attempt-span
outcomes, ejects the shard only when there is no verdict (a shard
fault), and conserves the request.

``CancelledError`` has a row but no parity case: when a shard's attempt
future is cancelled before it answers, nobody is at fault — something
reached into the shard's future, and the shard is healthy.  The attempt
reaches no verdict of its own; the request moves to the next replica
without ejecting anyone and counts exactly one outcome, the replica's
(pinned by the cancelled-attempt cases below).
"""

import threading

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


def _stub(server, exc, sync):
    """Make every read on ``server`` end in ``exc``."""
    def submit(*args, **kwargs):
        if sync:
            raise exc
        future = Future()
        future.set_exception(exc)
        return future

    server.submit = submit


def _run(served, exc, sync, read):
    """One read against a 2-replica fleet whose primary always raises
    ``exc``.  Returns (term counted, root-span outcome, attempt-span
    outcome, primary still healthy, lost)."""
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
        if read == "submit":
            fleet.submit("m", omega).result(timeout=30)
        else:
            fleet.predict("m", omega, timeout=30)
    except type(exc) as raised:
        assert raised is exc        # the verdict is delivered as it is
    after = fleet.stats
    terms = [t for t in ("served", "rejected", "expired", "errors",
                         "cancelled", "unavailable")
             if getattr(after, t) - getattr(before, t)]
    assert len(terms) == 1 and after.submitted - before.submitted == 1
    spans = telemetry.tracer.spans()
    (root,) = [s for s in spans if s.name == "fleet.request"]
    attempt = next(s for s in spans if s.name == "fleet.attempt"
                   and s.attrs["shard"] == primary.id)
    return (terms[0], root.attrs["outcome"], attempt.attrs["outcome"],
            primary.healthy, after.lost)


@pytest.mark.parametrize("read", ["submit", "predict"])
@pytest.mark.parametrize("sync", [True, False], ids=["sync", "async"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_sync_and_async_refusals_agree_with_the_table(served, case, sync,
                                                      read):
    exc = CASES[case]()
    # A fault has no verdict: the shard is ejected and the replica
    # serves the request.
    term, label = verdict(exc) or ("served", "fault")
    got_term, root, attempt, healthy, lost = _run(served, exc, sync, read)
    assert got_term == term
    # The request root says the ledger's word; the primary's attempt
    # span says the span label (``error`` for ``errors``) — the golden
    # trace pins both.
    assert (root, attempt) == (term, label)
    assert healthy == (verdict(exc) is not None)
    assert lost == 0


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


def _cancelling_stub(server, issued, cancel):
    """Make every read on ``server`` return an attempt future that is
    never answered — already cancelled with ``cancel``, else pending;
    ``issued`` collects them for the test to cancel."""
    def submit(*args, **kwargs):
        future = Future()
        if cancel:
            future.cancel()
        issued.append(future)
        return future

    server.submit = submit


def _cancelled_attempt_fleet(served, cancel=False):
    model, problem = served
    fleet = ShardedFleet(FleetConfig(
        shards=2, replicas=2, server=ServerConfig(workers=1, cache_bytes=0)))
    fleet.register_model("m", model, problem)
    telemetry = Telemetry()
    fleet.enable_telemetry(telemetry)
    primary_id, replica_id = fleet.replicas_for("m")
    issued: list[Future] = []
    _cancelling_stub(fleet._by_id[primary_id].server, issued, cancel)
    return fleet, telemetry, issued, primary_id, replica_id


def _assert_moved_on(fleet, telemetry, primary_id, replica_id):
    """The request failed over once, ejected nobody and was served by
    the replica: one outcome, ``lost == 0``."""
    s = fleet.stats
    assert s.submitted == 1 and s.served == 1 and s.lost == 0
    assert (s.rejected, s.expired, s.errors, s.cancelled,
            s.unavailable) == (0, 0, 0, 0, 0)
    assert s.failovers == 1 and s.shard_faults == 0
    assert s.healthy_shards == len(fleet.shards)
    spans = telemetry.tracer.spans()
    attempts = sorted((sp for sp in spans if sp.name == "fleet.attempt"),
                      key=lambda sp: sp.span_id)
    assert [(sp.attrs["shard"], sp.attrs["outcome"]) for sp in attempts] \
        == [(primary_id, "cancelled"), (replica_id, "served")]
    (root,) = [sp for sp in spans if sp.name == "fleet.request"]
    assert root.attrs["outcome"] == "served"


@pytest.mark.parametrize("read", ["submit", "predict"])
def test_attempt_already_cancelled_moves_on(served, read):
    """The shard hands back an attempt future that is already
    cancelled: the done-callback runs inline, on the dispatching
    thread."""
    fleet, telemetry, issued, primary_id, replica_id = \
        _cancelled_attempt_fleet(served, cancel=True)
    omega = np.full(served[1].field.m, 0.25)
    if read == "submit":
        out = fleet.submit("m", omega).result(timeout=30)
    else:
        out = fleet.predict("m", omega, timeout=30)
    assert out.shape and len(issued) == 1
    _assert_moved_on(fleet, telemetry, primary_id, replica_id)


def test_attempt_cancelled_in_flight_moves_on(served):
    """The attempt is pending when it is cancelled, from another thread
    than the one that dispatched it: the fleet future stays pending
    until then, and resolves from the replica after."""
    fleet, telemetry, issued, primary_id, replica_id = \
        _cancelled_attempt_fleet(served)
    out = fleet.submit("m", np.full(served[1].field.m, 0.25))
    assert not out.done() and len(issued) == 1
    canceller = threading.Thread(target=issued[0].cancel)
    canceller.start()
    canceller.join()
    assert out.result(timeout=30).shape
    _assert_moved_on(fleet, telemetry, primary_id, replica_id)
