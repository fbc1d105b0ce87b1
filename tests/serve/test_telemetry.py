"""Unified telemetry: golden traces, conservation cross-checks, metrics.

Contracts pinned here:

* **Golden traces** — a seeded replay of the committed storm scenario
  under a shared :class:`VirtualClock` exports *byte-identical* span
  jsonl across two fresh runs: every timestamp is a pure function of
  the trace, never of the wall clock.
* **Well-formed span trees** — no orphan ``parent_id``s, child
  intervals nested inside their parents, sequential ids.
* **Conservation cross-check** — the ``fleet.*`` names read the
  fleet's counter ledger, the ``stats.fleet.*`` views read the merged
  ``FleetStats`` snapshot.  Both must satisfy the request conservation
  law (``submitted`` and the outcome terms are counted at different
  event sites) and agree with each other, under storms and chaos alike.
* **Zero overhead when off** — the disabled tracer/span are falsy
  no-ops; a server or fleet without telemetry holds the null tracer
  and a ``None`` bundle handle.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro import MGDiffNet, PoissonProblem2D
from repro.serve import (
    NULL_SPAN, NULL_TRACER, ArrivalSpec, FaultSpec, FleetConfig, FleetStats,
    MetricsRegistry, PredictionServer, QuantileSketch, ReplayHarness,
    Scenario, ServerConfig, ShardedFleet, Telemetry, TenantSpec, Tracer,
    VirtualClock, export_jsonl, format_summary, load_scenario, parse_jsonl,
    summarize_spans,
)

STORM_JSON = (Path(__file__).resolve().parents[2]
              / "benchmarks" / "scenarios" / "storm.json")

# The request conservation law: submitted == sum of terminal outcomes.
CONSERVED = ("served", "rejected", "expired", "errors", "cancelled",
             "unavailable")

# sha256 of the storm replay's jsonl artifacts (the golden-trace recipe
# in ``_virtual_run``).
STORM_DIGESTS = {
    "event_log":
        "c6303bb7a0dc9c7b736a50c4b5e573c12f974341ebe1fd2e744427377b4c1b05",
    "span_log":
        "1428dbe504993bc31d8c39e740e48f97426f15b9f700fd0025a89e717cbe00ce",
}


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


def _scenario(**kw) -> Scenario:
    kw.setdefault("name", "unit")
    kw.setdefault("seed", 7)
    kw.setdefault("duration_s", 1.0)
    kw.setdefault("models", ("m0", "m1"))
    return Scenario(**kw)


def _virtual_run(served, scenario, *, trace_sample=1):
    """The golden-trace recipe: shared VirtualClock, *unstarted* fleet
    (submits process inline on the single pacing thread), no client
    retry.  Returns (fleet, telemetry, report)."""
    model, problem = served
    clock = VirtualClock()
    telemetry = Telemetry(clock=clock, trace_sample=trace_sample)
    fleet = _fleet(shards=3)
    for name in scenario.models:
        fleet.register_model(name, model, problem)
    report = ReplayHarness(fleet, scenario, clock=clock,
                           telemetry=telemetry).run()
    return fleet, telemetry, report


# --------------------------------------------------------------------- #
# Golden traces
# --------------------------------------------------------------------- #
class TestGoldenTrace:
    def test_storm_span_log_is_byte_identical(self, served):
        scenario = load_scenario(STORM_JSON)
        _, _, a = _virtual_run(served, scenario)
        _, _, b = _virtual_run(served, scenario)
        assert a.span_log() == b.span_log()
        assert len(a.span_log().splitlines()) > 100

    @pytest.mark.parametrize("artifact", sorted(STORM_DIGESTS))
    def test_storm_logs_match_their_pinned_digests(self, served, artifact):
        """Byte-identical across runs is not enough: the logs are pinned
        to the bytes earlier commits produced, so a change that reshapes
        what the fleet does under the storm shows up here."""
        _, _, report = _virtual_run(served, load_scenario(STORM_JSON))
        text = report.log if artifact == "event_log" else report.span_log()
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == STORM_DIGESTS[artifact]

    def test_span_tree_is_well_formed(self, served):
        scenario = load_scenario(STORM_JSON)
        _, _, report = _virtual_run(served, scenario)
        spans = parse_jsonl(report.span_log())
        assert spans
        by_id = {s["span_id"] for s in spans}
        assert len(by_id) == len(spans)            # unique ids
        ids = [s["span_id"] for s in spans]
        assert ids == sorted(ids)                  # export is id-ordered
        intervals = {s["span_id"]: (s["start"], s["end"]) for s in spans}
        for s in spans:
            assert s["end"] >= s["start"]
            parent = s.get("parent_id")
            if parent is None:
                continue
            assert parent in by_id, f"orphan span {s['span_id']}"
            p_start, p_end = intervals[parent]
            assert p_start <= s["start"]           # child opened inside
            assert s["end"] <= p_end               # ... and closed inside

    def test_root_outcomes_are_conservation_terms(self, served):
        scenario = load_scenario(STORM_JSON)
        _, _, report = _virtual_run(served, scenario)
        roots = [s for s in parse_jsonl(report.span_log())
                 if s["name"] == "fleet.request"]
        assert len(roots) == report.requests
        outcomes = {s["attrs"]["outcome"] for s in roots}
        assert outcomes <= set(CONSERVED)
        assert sum(1 for s in roots
                   if s["attrs"]["outcome"] == "served") == report.served

    def test_virtual_hang_advances_time_without_blocking(self, served):
        """The storm schedules a hang; under the virtual clock the
        stalled wrapper advances time to the release instead of
        sleeping, so some span durations are positive."""
        scenario = load_scenario(STORM_JSON)
        _, _, report = _virtual_run(served, scenario)
        durs = [s["dur"] for s in parse_jsonl(report.span_log())]
        assert max(durs) > 0.0

    def test_sampling_traces_one_root_in_n(self, served):
        scenario = _scenario(arrivals=ArrivalSpec(rate=40.0))
        _, _, dense = _virtual_run(served, scenario, trace_sample=1)
        _, _, sparse = _virtual_run(served, scenario, trace_sample=4)

        def roots(report):
            return [s for s in parse_jsonl(report.span_log())
                    if s["name"] == "fleet.request"]

        n_dense, n_sparse = len(roots(dense)), len(roots(sparse))
        assert n_dense == dense.requests
        # Unsampled roots suppress their whole subtree.
        assert n_sparse == -(-n_dense // 4)
        assert len(parse_jsonl(sparse.span_log())) < len(
            parse_jsonl(dense.span_log()))


# --------------------------------------------------------------------- #
# Conservation cross-check: registry counters vs legacy stats views
# --------------------------------------------------------------------- #
def _assert_reconciled(fleet, telemetry):
    """Both accounting paths satisfy the law and agree term by term."""
    reg = telemetry.metrics
    stats = fleet.stats
    assert stats.lost == 0
    submitted = reg.value("fleet.submitted")
    assert submitted == sum(reg.value(f"fleet.{k}") for k in CONSERVED)
    for name in ("submitted",) + CONSERVED:
        counter = reg.value(f"fleet.{name}")      # event-site mirror
        view = reg.value(f"stats.fleet.{name}")   # lazy legacy read
        legacy = getattr(stats, name)
        assert counter == view == legacy, (
            f"{name}: counter={counter} view={view} stats={legacy}")


class TestConservationCrossCheck:
    def test_exactly_the_six_outcome_terms_close_the_law(self, served):
        """Of every ``fleet.<term>`` the registry names, one submit ending
        in it is accounted for exactly when it is an outcome term; the
        machinery counts (failovers, hangs, probes, ...) never close
        the law."""
        fleet, telemetry, _ = _virtual_run(
            served, _scenario(duration_s=0.2))
        terms = {n[len("fleet."):] for n in telemetry.metrics.names()
                 if n.startswith("fleet.")}
        assert terms == set(fleet._c)
        closing = {t for t in terms - {"submitted"}
                   if FleetStats(submitted=1, **{t: 1}).lost == 0}
        assert closing == set(CONSERVED)

    def test_storm_virtual(self, served):
        fleet, telemetry, report = _virtual_run(
            served, load_scenario(STORM_JSON))
        assert report.requests > 0
        _assert_reconciled(fleet, telemetry)

    def test_chaos_live(self, served):
        """Kill + hang + flap against a *started* fleet, real clock:
        the mirrored counters accumulate from worker threads and must
        still reconcile exactly."""
        model, problem = served
        scenario = _scenario(
            name="chaos", seed=11, duration_s=1.2,
            arrivals=ArrivalSpec(rate=40.0),
            tenants=(TenantSpec("interactive", weight=1.0, priority=5),
                     TenantSpec("bulk", weight=2.0)),
            faults=(FaultSpec(t=0.2, op="flap", shard=1, period_s=0.3,
                              count=2),
                    FaultSpec(t=0.4, op="kill", shard=2, duration_s=0.5),
                    FaultSpec(t=0.6, op="hang", shard=0, duration_s=0.3)))
        telemetry = Telemetry()
        fleet = _fleet(shards=3, shard_timeout_s=0.2)
        fleet.register_model("m0", model, problem)
        fleet.register_model("m1", model, problem)
        with fleet:
            report = ReplayHarness(fleet, scenario,
                                   telemetry=telemetry).run()
        assert report.requests > 0
        _assert_reconciled(fleet, telemetry)

    def test_flat_load_no_faults(self, served):
        fleet, telemetry, report = _virtual_run(
            served, _scenario(duration_s=0.5,
                              arrivals=ArrivalSpec(rate=30.0)))
        assert report.served == report.requests
        _assert_reconciled(fleet, telemetry)

    def test_no_resilience_views_registered(self, served):
        """The fleet has no resilience seam, so telemetry names no
        retry, hedge or breaker counters."""
        _, telemetry, _ = _virtual_run(served, _scenario(duration_s=0.3))
        assert not [n for n in telemetry.metrics.names()
                    if n.startswith(("stats.retry.", "stats.hedge.",
                                     "stats.breaker.", "fleet.retr"))]

    def test_health_views_follow_ejection_and_probe(self, served):
        """Shard health is read through the fleet's views, with no gauge
        sampling it: ``stats.fleet.healthy_shards`` drops on an ejection
        and recovers after ``check_health()``, which ``fleet.probes``
        counts."""
        model, problem = served
        fleet = _fleet()
        fleet.register_model("m", model, problem)
        telemetry = Telemetry()
        fleet.enable_telemetry(telemetry)
        reg = telemetry.metrics
        assert reg.value("stats.fleet.healthy_shards") == 3
        victim = fleet.shards[0]
        fleet._eject(victim, RuntimeError("flap"))
        assert reg.value("stats.fleet.healthy_shards") == 2
        assert reg.value("fleet.shard_faults") == 1
        with fleet:
            assert fleet.check_health() == [victim.id]
        assert reg.value("stats.fleet.healthy_shards") == 3
        assert reg.value("fleet.probes") == 1
        assert reg.value("stats.fleet.readmissions") == 1


# --------------------------------------------------------------------- #
# Instruments
# --------------------------------------------------------------------- #
class TestMetricsInstruments:
    def test_counter_is_monotone(self):
        reg = MetricsRegistry()
        c = reg.counter("c")
        c.inc()
        c.inc(5)
        assert reg.value("c") == 6
        assert reg.counter("c") is c               # get-or-create
        with pytest.raises(ValueError):
            c.inc(-1)

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
        assert reg.value("v") == 2

    def test_name_kind_collision_is_loud(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError, match="different kind"):
            reg.histogram("x")
        with pytest.raises(ValueError, match="different kind"):
            reg.register_view("x", lambda: 0)
        with pytest.raises(KeyError):
            reg.value("missing")

    def test_snapshot_flattens_histograms(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        reg.histogram("h").observe(10.0)
        reg.register_view("v", lambda: 7)
        snap = reg.snapshot()
        assert snap["c"] == 2 and snap["v"] == 7
        assert snap["h.count"] == 1 and snap["h.mean"] == 10.0
        parsed = json.loads(reg.to_json())
        assert parsed["c"] == 2
        assert reg.names() == ["c", "h", "v"]


# --------------------------------------------------------------------- #
# Tracer mechanics + zero overhead when off
# --------------------------------------------------------------------- #
class TestTracer:
    def test_null_singletons_are_falsy_noops(self):
        assert not NULL_SPAN and not NULL_TRACER
        assert NULL_TRACER.start("x") is NULL_SPAN
        assert NULL_SPAN.finish(outcome="served") is NULL_SPAN
        assert NULL_TRACER.spans() == []
        assert NULL_TRACER.export_jsonl() == ""
        with NULL_SPAN as s:
            assert s is NULL_SPAN

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
        _, _, report = _virtual_run(
            served, _scenario(duration_s=0.3,
                              arrivals=ArrivalSpec(rate=20.0)))
        path = tmp_path / "spans.jsonl"
        path.write_text(report.span_log())
        assert main(["trace", "summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "fleet.request" in out and "stage" in out

    def test_trace_summarize_cli_rejects_empty(self, tmp_path, capsys):
        from repro.cli import main
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["trace", "summarize", str(empty)]) == 1
        assert main(["trace", "summarize", str(tmp_path / "nope")]) == 1
