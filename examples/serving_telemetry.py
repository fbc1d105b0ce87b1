"""Unified telemetry: trace a failover, reconcile the ledgers.

Walks the observability layer end-to-end:

1. **Trace a failover** — the primary of a 2-way replicated key is
   killed (its submit raises).  With a :class:`~repro.serve.Telemetry`
   bundle enabled, every read leaves a span tree: ``fleet.request``
   roots and one ``fleet.attempt`` per shard try, with the server-side
   stages (``queue.wait``, ``batch.collect``, ``server.forward``) under
   the attempt that was served.  The first read shows the failover: a
   ``fleet.attempt`` that ends in ``outcome=fault`` on the dead
   primary, then a second attempt on the replica.  Later reads skip the
   ejected primary.  The per-stage latency table shows exactly where
   the time went — the same table ``repro trace summarize`` renders
   offline from an exported jsonl.
2. **Check the ledger** — the metrics registry names the fleet's one
   counter ledger (``fleet.*``) and the merged stats snapshot
   (``stats.fleet.*``) as read-time views; the conservation law
   (``submitted == served + ... ; lost == 0``, terms counted at
   different event sites) must hold and the names must agree term by
   term.
3. **Golden trace** — the committed storm replayed under a
   :class:`~repro.serve.VirtualClock` twice produces byte-identical
   span jsonl: every timestamp is a pure function of the trace, so a
   trace diff is a semantic diff (the contract pinned by
   ``tests/serve/test_telemetry.py``).

Usage::

    python examples/serving_telemetry.py [--reads 32]
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro import MGDiffNet, PoissonProblem2D
from repro.data.sobol import sample_omega
from repro.serve import (
    FleetConfig, ReplayHarness, ServerConfig, ShardedFleet, Telemetry,
    VirtualClock, export_jsonl, format_summary, load_scenario,
    summarize_spans,
)

STORM = Path(__file__).resolve().parents[1] / "benchmarks" / "scenarios" \
    / "storm.json"

CONSERVED = ("served", "rejected", "expired", "errors", "cancelled",
             "unavailable")


def _fleet(shards=2, replicas=2, **kw):
    return ShardedFleet(FleetConfig(
        shards=shards, replicas=replicas,
        server=ServerConfig(max_batch=8, max_wait_ms=0.5, workers=1,
                            cache_bytes=0), **kw))


def _kill(server):
    def dead(*args, **kwargs):
        raise ConnectionError("scripted kill")

    server.submit = dead


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--reads", type=int, default=32)
    parser.add_argument("--resolution", type=int, default=16)
    args = parser.parse_args()

    problem = PoissonProblem2D(args.resolution)
    model = MGDiffNet(ndim=2, base_filters=4, depth=1, rng=42)

    # ---------------------------------------------------------------- #
    # 1. Trace reads while the primary is dead
    # ---------------------------------------------------------------- #
    print("-- tracing reads: the primary is killed, its replica serves")
    fleet = _fleet()
    fleet.register_model("m", model, problem)
    primary_id, replica_id = fleet.replicas_for("m")
    _kill(next(s.server for s in fleet.shards if s.id == primary_id))
    tel = Telemetry()
    fleet.enable_telemetry(tel)
    with fleet:
        for w in sample_omega(args.reads, 4):
            fleet.predict("m", w, timeout=60)

    spans = tel.tracer.spans()
    print(format_summary(summarize_spans(spans)))
    roots = [s for s in spans if s.name == "fleet.request"]
    first_root = min(s.span_id for s in roots)
    first = sorted((s for s in spans if s.name == "fleet.attempt"
                    and s.parent_id == first_root),
                   key=lambda s: s.span_id)
    print("   first read: " + " -> ".join(
        f"{s.attrs['shard']} {s.attrs['outcome']}" for s in first))
    print(f"   {len(roots)} request trees, {fleet.stats.failovers} "
          f"failover, {fleet.stats.shard_faults} ejection")
    assert len(roots) == args.reads
    assert [(s.attrs["shard"], s.attrs["outcome"]) for s in first] == [
        (primary_id, "fault"), (replica_id, "served")]

    # ---------------------------------------------------------------- #
    # 2. Conservation law on the ledger, under every name it goes by
    # ---------------------------------------------------------------- #
    print("\n-- conservation law, on the ledger and its views")
    reg, stats = tel.metrics, fleet.stats
    total = sum(reg.value(f"fleet.{k}") for k in CONSERVED)
    print(f"   counters: submitted={reg.value('fleet.submitted'):.0f} == "
          f"sum(outcomes)={total:.0f}")
    for key in ("submitted",) + CONSERVED:
        assert reg.value(f"fleet.{key}") == reg.value(f"stats.fleet.{key}") \
            == getattr(stats, key)
    assert stats.lost == 0
    print(f"   every term matches the stats view; lost={stats.lost}")

    # ---------------------------------------------------------------- #
    # 3. Golden trace: the storm under a virtual clock, twice
    # ---------------------------------------------------------------- #
    scenario = load_scenario(STORM)
    print(f"\n-- golden trace: {scenario.name!r} (seed {scenario.seed}) "
          f"under a virtual clock, twice")

    def run():
        clock = VirtualClock()
        tel = Telemetry(clock=clock)
        fleet = _fleet(shards=3)
        for name in scenario.models:
            fleet.register_model(name, model, problem)
        fleet.enable_telemetry(tel)
        report = ReplayHarness(fleet, scenario, clock=clock,
                               telemetry=tel).run()
        return export_jsonl(tel.tracer.spans()), report

    first, report = run()
    second, _ = run()
    print(f"   {report.requests} requests -> "
          f"{len(first.splitlines())} spans; lost={report.lost}")
    print(f"   byte-identical across runs: {first == second}")
    assert first == second
    assert report.lost == 0
    print("\nevery request accounted for, every millisecond attributed")


if __name__ == "__main__":
    main()
