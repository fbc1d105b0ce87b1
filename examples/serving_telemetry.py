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
3. **Heal a hang through plain futures** — the primary of a fleet with
   ``shard_timeout_s`` set hangs mid-forward.  Nothing drains through a
   helper: each read is ``submit(...).result()``, and the fleet's
   watchdog ejects the hung shard ``shard_timeout_s`` after dispatch
   and re-dispatches to the replica.  The per-stage table shows where
   the time went: the ``fleet.request`` roots and the hung attempts
   (closed when the hang clears) carry the hang budget; the replica's
   attempts take milliseconds.

Usage::

    python examples/serving_telemetry.py [--reads 32]
"""

from __future__ import annotations

import argparse
import threading

from repro import MGDiffNet, PoissonProblem2D
from repro.data.sobol import sample_omega
from repro.serve import (
    FleetConfig, ServerConfig, ShardedFleet, Telemetry, format_summary,
    summarize_spans,
)

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
    # 3. A hung primary, healed through plain submit(...).result()
    # ---------------------------------------------------------------- #
    budget = 0.25
    print(f"\n-- a hung primary, shard_timeout_s={budget}: plain futures heal")
    fleet = _fleet(shard_timeout_s=budget)
    fleet.register_model("m", model, problem)
    primary = next(s.server for s in fleet.shards
                   if s.id == fleet.replicas_for("m")[0])
    release = threading.Event()
    forward = primary._forward

    def hung(entry, omegas, resolution, trace):
        release.wait(timeout=60)
        return forward(entry, omegas, resolution, trace=trace)

    primary._forward = hung
    tel = Telemetry()
    fleet.enable_telemetry(tel)
    with fleet:
        futures = [fleet.submit("m", w) for w in sample_omega(4, 4)]
        fields = [f.result(timeout=60) for f in futures]
        release.set()
    stats = fleet.stats
    print(format_summary(summarize_spans(tel.tracer.spans())))
    print(f"   {len(fields)} reads served, {stats.hangs} hang ejection, "
          f"{stats.failovers} failovers; lost={stats.lost}")
    assert stats.hangs == 1 and stats.served == len(fields)
    assert stats.lost == 0
    print("\nevery request accounted for, every millisecond attributed")


if __name__ == "__main__":
    main()
