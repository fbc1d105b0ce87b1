"""Unified telemetry: sampling, conservation cross-checks, metrics.

Contracts pinned here:

* **Sampling** — one root in N is traced, and an unsampled root
  suppresses its whole subtree.
* **Conservation cross-check** — the ``stats.fleet.*`` views, one name
  per fleet number, read the merged ``FleetStats`` snapshot of the
  fleet's counter ledger.  They must satisfy the request conservation
  law (``submitted`` and the outcome terms are counted at different
  event sites) and agree with ``fleet.stats``, inline and under live
  chaos.
* **Zero overhead when off** — the disabled tracer/span are falsy
  no-ops; a server or fleet without telemetry holds the null tracer
  and a ``None`` bundle handle.

The golden traces (byte-identical span jsonl, well-formed span trees,
root outcomes that are conservation terms) are the fleet simulation's:
``tests/serve/test_fleet_sim.py``.
"""

import json
import threading
from pathlib import Path

import numpy as np
import pytest

from repro import MGDiffNet, PoissonProblem2D
from repro.serve import (
    NULL_SPAN, NULL_TRACER, FleetConfig, FleetStats, MetricsRegistry,
    PredictionServer, QuantileSketch, ServerConfig, ShardedFleet, Telemetry,
    Tracer, export_jsonl, format_summary, parse_jsonl, summarize_spans,
)
from tests.serve.test_fleet_sim import VirtualClock

# The request conservation law: submitted == sum of terminal outcomes.
CONSERVED = ("served", "rejected", "expired", "errors", "cancelled",
             "unavailable")


@pytest.fixture(scope="module")
def served():
    problem = PoissonProblem2D(16)
    model = MGDiffNet(ndim=2, base_filters=4, depth=1, rng=1)
    return model, problem


def _fleet(shards=3, **fleet_kw) -> ShardedFleet:
    return ShardedFleet(FleetConfig(
        shards=shards, replicas=2,
        server=ServerConfig(max_batch=4, max_wait_ms=0.0, workers=1,
                            cache_bytes=0), **fleet_kw))


def _kill(server) -> None:
    def dead(*args, **kwargs):
        raise ConnectionError("killed")
    server.submit = dead


def _inline_run(served, requests, *, trace_sample=1, kill_primary=False):
    """Seeded reads on an *unstarted* fleet (submits run inline) under a
    shared VirtualClock; with ``kill_primary`` the primary of ``m0`` is
    dead, so its reads fail over.  Returns (fleet, telemetry)."""
    model, problem = served
    clock = VirtualClock()
    telemetry = Telemetry(clock=clock, trace_sample=trace_sample)
    fleet = _fleet(shards=3)
    for name in ("m0", "m1"):
        fleet.register_model(name, model, problem)
    fleet.enable_telemetry(telemetry)
    if kill_primary:
        _kill(fleet._by_id[fleet.replicas_for("m0")[0]].server)
    rng = np.random.default_rng(7)
    for i in range(requests):
        clock.advance(0.01)
        fleet.submit(f"m{i % 2}", rng.uniform(-1, 1, 4)).result()
    return fleet, telemetry


def _roots(telemetry):
    return [s for s in telemetry.tracer.spans() if s.name == "fleet.request"]


class TestSampling:
    def test_sampling_traces_one_root_in_n(self, served):
        _, dense = _inline_run(served, 12, trace_sample=1)
        _, sparse = _inline_run(served, 12, trace_sample=4)
        n_dense, n_sparse = len(_roots(dense)), len(_roots(sparse))
        assert n_dense == 12
        # Unsampled roots suppress their whole subtree.
        assert n_sparse == -(-n_dense // 4)
        assert len(sparse.tracer.spans()) < len(dense.tracer.spans())


# --------------------------------------------------------------------- #
# Conservation cross-check: the registry's views vs the stats snapshot
# --------------------------------------------------------------------- #
def _assert_reconciled(fleet, telemetry):
    """The registry's views satisfy the law and agree term by term with
    ``fleet.stats``."""
    snap = telemetry.metrics.snapshot()
    stats = fleet.stats
    assert stats.lost == 0
    submitted = snap["stats.fleet.submitted"]
    assert submitted == sum(snap[f"stats.fleet.{k}"] for k in CONSERVED)
    for name in ("submitted",) + CONSERVED:
        view = snap[f"stats.fleet.{name}"]
        assert view == getattr(stats, name), (
            f"{name}: view={view} stats={getattr(stats, name)}")


class TestConservationCrossCheck:
    def test_exactly_the_six_outcome_terms_close_the_law(self, served):
        """Of every ledger term, each named once in the registry as
        ``stats.fleet.<term>``, one submit ending in it is accounted for
        exactly when it is an outcome term; the machinery counts
        (failovers, hangs, probes, ...) never close the law."""
        fleet, telemetry = _inline_run(served, 4, kill_primary=True)
        names = telemetry.metrics.snapshot()
        assert not [n for n in names if n.startswith("fleet.")]
        terms = set(fleet._c)
        assert {f"stats.fleet.{t}" for t in terms} <= set(names)
        closing = {t for t in terms - {"submitted"}
                   if FleetStats(submitted=1, **{t: 1}).lost == 0}
        assert closing == set(CONSERVED)

    def test_chaos_live(self, served):
        """Kill + hang against a *started* fleet, real clock: the
        mirrored counters accumulate from worker threads and the
        watchdog, and must still reconcile exactly."""
        model, problem = served
        telemetry = Telemetry()
        fleet = _fleet(shards=3, shard_timeout_s=0.2)
        fleet.register_model("m0", model, problem)
        fleet.register_model("m1", model, problem)
        fleet.enable_telemetry(telemetry)
        dead, slow = fleet.shards[0].server, fleet.shards[1].server
        _kill(dead)
        release = threading.Event()
        forward = slow._forward

        def hung(entry, omegas, resolution, trace):
            assert release.wait(timeout=60)
            return forward(entry, omegas, resolution, trace=trace)

        slow._forward = hung
        rng = np.random.default_rng(11)
        with fleet:
            futures = []
            for i in range(16):
                try:
                    futures.append(fleet.submit(f"m{i % 2}",
                                                rng.uniform(-1, 1, 4)))
                except Exception:
                    pass                 # a verdict, counted all the same
            for future in futures:
                try:
                    future.result(timeout=30)
                except Exception:
                    pass
            release.set()
        s = fleet.stats
        assert s.submitted == 16 and s.shard_faults >= 1 and s.hangs >= 1
        _assert_reconciled(fleet, telemetry)

    def test_flat_load_no_faults(self, served):
        fleet, telemetry = _inline_run(served, 15)
        assert fleet.stats.served == 15
        _assert_reconciled(fleet, telemetry)

    def test_no_resilience_views_registered(self, served):
        """The fleet has no resilience seam, so telemetry names no
        retry, hedge or breaker counters."""
        _, telemetry = _inline_run(served, 3, kill_primary=True)
        assert not [n for n in telemetry.metrics.snapshot()
                    if n.startswith(("stats.retry.", "stats.hedge.",
                                     "stats.breaker.", "fleet.retr"))]

    def test_health_views_follow_ejection_and_probe(self, served):
        """Shard health is read through the fleet's views, with no gauge
        sampling it: ``stats.fleet.healthy_shards`` drops on an ejection
        and recovers after ``check_health()``, which
        ``stats.fleet.probes`` counts."""
        model, problem = served
        fleet = _fleet()
        fleet.register_model("m", model, problem)
        telemetry = Telemetry()
        fleet.enable_telemetry(telemetry)

        def view(name):
            return telemetry.metrics.snapshot()[f"stats.fleet.{name}"]

        assert view("healthy_shards") == 3
        victim = fleet.shards[0]
        fleet._eject(victim, RuntimeError("flap"))
        assert view("healthy_shards") == 2
        assert view("shard_faults") == 1
        with fleet:
            assert fleet.check_health() == [victim.id]
        assert view("healthy_shards") == 3
        assert view("probes") == 1
        assert view("readmissions") == 1


# --------------------------------------------------------------------- #
# Instruments
# --------------------------------------------------------------------- #
class TestMetricsInstruments:
    def test_quantile_sketch_within_bucket_resolution(self):
        sk = QuantileSketch("lat", gamma=1.02)
        values = [float(i) for i in range(1, 1001)]
        for v in values:
            sk.observe(v)
        assert sk.count == 1000
        assert sk.min == 1.0 and sk.max == 1000.0
        assert sk.mean == pytest.approx(500.5)
        # The sketch overshoots the true quantile by <= one bucket.
        assert 500.0 <= sk.p50 <= 500.0 * 1.02 * 1.02
        assert 990.0 <= sk.p99 <= 990.0 * 1.02 * 1.02

    def test_quantile_sketch_zero_bucket_and_empty(self):
        sk = QuantileSketch("z")
        assert sk.quantile(0.5) == 0.0             # empty
        for _ in range(10):
            sk.observe(0.0)
        assert sk.p50 == 0.0
        with pytest.raises(ValueError):
            sk.quantile(1.5)

    def test_view_reregister_replaces(self):
        reg = MetricsRegistry()
        reg.register_view("v", lambda: 1)
        reg.register_view("v", lambda: 2)          # idempotent re-enable
        assert reg.snapshot() == {"v": 2}

    def test_name_kind_collision_is_loud(self):
        reg = MetricsRegistry()
        reg.histogram("x")
        with pytest.raises(ValueError, match="different kind"):
            reg.register_view("x", lambda: 0)
        reg.register_view("y", lambda: 0)
        with pytest.raises(ValueError, match="different kind"):
            reg.histogram("y")

    def test_snapshot_flattens_histograms(self):
        reg = MetricsRegistry()
        reg.histogram("h").observe(10.0)
        reg.register_view("v", lambda: 7)
        snap = reg.snapshot()
        assert snap["v"] == 7
        assert snap["h.count"] == 1 and snap["h.mean"] == 10.0
        parsed = json.loads(reg.to_json())
        assert parsed["v"] == 7
        assert sorted(snap) == ["h.count", "h.mean", "h.p50", "h.p99", "v"]


# --------------------------------------------------------------------- #
# Tracer mechanics + zero overhead when off
# --------------------------------------------------------------------- #
class TestTracer:
    def test_null_singletons_are_falsy_noops(self):
        assert not NULL_SPAN and not NULL_TRACER
        assert NULL_TRACER.start("x") is NULL_SPAN
        assert NULL_SPAN.finish(outcome="served") is NULL_SPAN
        assert NULL_TRACER.spans() == []
        with NULL_SPAN as s:
            assert s is NULL_SPAN

    def test_null_objects_are_used_by_production_modules(self):
        """Every layer holds the null objects (no ``is None`` forks on a
        tracer or span: a ``tests/denylist.py`` row), not a fixture only
        this test imports."""
        serve = Path(__file__).resolve().parents[2] / "src/repro/serve"
        users = {p.name for p in serve.glob("*.py")
                 if "NULL_TRACER" in p.read_text()}
        assert {"fleet.py", "server.py", "batching.py", "tiling.py"} <= users

    def test_unsampled_parent_suppresses_subtree(self):
        tracer = Tracer(sample_every=2)
        kept = tracer.start("root")                # root 0: sampled
        dropped = tracer.start("root")             # root 1: sampled out
        assert kept and not dropped
        assert tracer.start("child", parent=dropped) is NULL_SPAN
        child = tracer.start("child", parent=kept)
        assert child.parent_id == kept.span_id

    def test_finish_is_idempotent(self):
        clock = VirtualClock()
        tracer = Tracer(clock=clock)
        span = tracer.start("s")
        clock.advance(1.0)
        span.finish(outcome="served")
        end = span.end
        clock.advance(1.0)
        span.finish(outcome="late")                # no-op: first wins
        assert span.end == end
        assert span.attrs["outcome"] == "served"

    def test_context_manager_records_error_type(self):
        tracer = Tracer(clock=VirtualClock())
        with pytest.raises(RuntimeError):
            with tracer.start("s") as span:
                raise RuntimeError("boom")
        assert span.attrs["error"] == "RuntimeError"
        assert span.end is not None

    def test_ring_capacity_drops_oldest(self):
        tracer = Tracer(capacity=4)
        for _ in range(10):
            tracer.start("s").finish()
        spans = tracer.spans()
        assert len(spans) == 4
        assert [s.span_id for s in spans] == [6, 7, 8, 9]

    def test_export_round_trips_and_sorts(self):
        tracer = Tracer(clock=VirtualClock())
        a = tracer.start("outer")
        b = tracer.start("inner", parent=a, shard=3)
        b.finish()
        a.finish(outcome="served")
        text = export_jsonl(reversed(tracer.spans()))   # any input order
        parsed = parse_jsonl(text)
        assert [s["span_id"] for s in parsed] == [0, 1]
        assert parsed[1]["attrs"]["shard"] == 3
        assert export_jsonl(parsed) == text             # dicts accepted

    def test_server_and_fleet_default_to_no_telemetry(self, served):
        model, problem = served
        from repro.serve import ModelRegistry
        registry = ModelRegistry()
        registry.register_model("m", model, problem)
        server = PredictionServer(registry, ServerConfig(workers=1))
        assert server.telemetry is None
        assert _fleet().telemetry is None


# --------------------------------------------------------------------- #
# Summaries + CLI
# --------------------------------------------------------------------- #
# One line per way an exported span file can be malformed.
MALFORMED_LINES = {
    "torn": '{"name": "fleet.attempt", "du',
    "number": "42",
    "no-name": '{"dur": 0.25, "attrs": {}}',
    "array": '[{"name": "fleet.request"}]',
    "null": "null",
}


class TestSummarize:
    def _spans(self):
        clock = VirtualClock()
        tracer = Tracer(clock=clock)
        for dur in (0.010, 0.020, 0.030):
            span = tracer.start("tile.compute")
            clock.advance(dur)
            span.finish()
        span = tracer.start("queue.wait")
        clock.advance(0.5)
        span.finish()
        return tracer.spans()

    def test_summarize_reduces_per_stage(self):
        summary = summarize_spans(self._spans())
        tile = summary["tile.compute"]
        assert tile["count"] == 3
        assert tile["total_s"] == pytest.approx(0.060)
        assert tile["mean_s"] == pytest.approx(0.020)
        assert tile["max_s"] == pytest.approx(0.030)
        assert summary["queue.wait"]["count"] == 1

    def test_format_summary_orders_by_total(self):
        text = format_summary(summarize_spans(self._spans()))
        lines = text.splitlines()
        assert lines[0].split() == ["stage", "count", "total_ms", "mean_ms",
                                    "p50_ms", "p99_ms", "max_ms"]
        # queue.wait (500 ms total) sorts above tile.compute (60 ms).
        assert lines[2].startswith("queue.wait")
        assert lines[3].startswith("tile.compute")

    def test_trace_summarize_cli(self, served, tmp_path, capsys):
        from repro.cli import main
        _, telemetry = _inline_run(served, 6, kill_primary=True)
        path = tmp_path / "spans.jsonl"
        path.write_text(export_jsonl(telemetry.tracer.spans()))
        assert main(["trace", "summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "fleet.request" in out and "stage" in out

    @pytest.mark.parametrize("bad", list(MALFORMED_LINES.values()),
                             ids=list(MALFORMED_LINES))
    def test_parse_jsonl_names_the_bad_line(self, bad):
        # The blank second line still counts: the number is the file's.
        text = '{"name": "fleet.request", "dur": 0.1}\n\n' + bad + "\n"
        with pytest.raises(ValueError, match=r"^line 3: "):
            parse_jsonl(text)

    def test_parse_jsonl_skips_blank_lines(self):
        text = '\n{"name": "a", "dur": 0.5}\n   \n{"name": "b"}\n'
        assert [s["name"] for s in parse_jsonl(text)] == ["a", "b"]

    @pytest.mark.parametrize("bad", list(MALFORMED_LINES.values()),
                             ids=list(MALFORMED_LINES))
    def test_trace_summarize_cli_rejects_a_malformed_file(self, tmp_path,
                                                          capsys, bad):
        from repro.cli import main
        path = tmp_path / "spans.jsonl"
        path.write_text('{"name": "fleet.request", "dur": 0.1}\n' + bad)
        assert main(["trace", "summarize", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: line 2: ")
        assert captured.out == ""

    def test_trace_summarize_cli_rejects_empty(self, tmp_path, capsys):
        from repro.cli import main
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["trace", "summarize", str(empty)]) == 1
        assert main(["trace", "summarize", str(tmp_path / "nope")]) == 1
