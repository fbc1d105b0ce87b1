"""Unified telemetry: trace a hedged request, reconcile the ledgers.

Walks the observability layer end-to-end:

1. **Trace a hedged read** — one replica of a 2-way replicated key is
   10x slower.  With hedging installed and a :class:`~repro.serve.
   Telemetry` bundle enabled, every read leaves a span tree:
   ``fleet.request`` roots, ``fleet.attempt`` per shard try,
   ``fleet.hedge`` when the backup fires, and under each attempt the
   server-side stages (``queue.wait``, ``batch.collect``,
   ``server.forward``).  The per-stage latency table shows exactly
   where the time went — the same table ``repro trace summarize``
   renders offline from an exported jsonl.
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
import time
from pathlib import Path

from repro import MGDiffNet, PoissonProblem2D
from repro.data.sobol import sample_omega
from repro.serve import (
    FleetConfig, HedgeConfig, ReplayHarness, ResilienceConfig, RetryConfig,
    ServerConfig, ShardedFleet, Telemetry, VirtualClock, export_jsonl,
    format_summary, install_resilience, load_scenario, summarize_spans,
)

STORM = Path(__file__).resolve().parents[1] / "benchmarks" / "scenarios" \
    / "storm.json"

CONSERVED = ("served", "rejected", "expired", "errors", "cancelled",
             "unavailable", "throttled")


def _fleet(shards=2, replicas=2, **kw):
    return ShardedFleet(FleetConfig(
        shards=shards, replicas=replicas,
        server=ServerConfig(max_batch=8, max_wait_ms=0.5, workers=1,
                            cache_bytes=0), **kw))


def _slow(server, delay_s):
    forward = server._forward

    def delayed(entry, omegas, resolution, **kw):
        time.sleep(delay_s)
        return forward(entry, omegas, resolution, **kw)

    server._forward = delayed


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--reads", type=int, default=32)
    parser.add_argument("--resolution", type=int, default=16)
    args = parser.parse_args()

    problem = PoissonProblem2D(args.resolution)
    model = MGDiffNet(ndim=2, base_filters=4, depth=1, rng=42)

    # ---------------------------------------------------------------- #
    # 1. Trace hedged reads against a hot primary
    # ---------------------------------------------------------------- #
    print("-- tracing hedged reads: primary 10x slower than its replica")
    fleet = _fleet()
    fleet.register_model("m", model, problem)
    primary_id, _ = fleet.replicas_for("m")
    for shard in fleet.shards:
        _slow(shard.server, 0.02 if shard.id == primary_id else 0.002)
    install_resilience(fleet, ResilienceConfig(hedge=HedgeConfig(
        quantile=90.0, max_delay_s=0.008, warmup=8)))
    tel = Telemetry()
    fleet.enable_telemetry(tel)
    with fleet:
        for w in sample_omega(args.reads, 4):
            fleet.predict("m", w, timeout=60)

    spans = tel.tracer.spans()
    print(format_summary(summarize_spans(spans)))
    hedges = [s for s in spans if s.name == "fleet.hedge"]
    roots = [s for s in spans if s.name == "fleet.request"]
    print(f"   {len(roots)} request trees, {len(hedges)} hedge spans "
          f"({fleet.stats.hedged_wins} backup wins)")
    assert len(roots) == args.reads

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
        install_resilience(fleet, ResilienceConfig(retry=RetryConfig(
            max_attempts=4, base_backoff_s=0.002, max_backoff_s=0.02)))
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
