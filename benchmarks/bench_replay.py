"""TRACE REPLAY — scripted failure weather against a failing-over fleet.

The committed ``scenarios/storm.json`` (zipfian popularity, lognormal
arrivals under a diurnal envelope, two-tenant priority mix) is replayed
against a 3-shard fleet while the scripted faults land: shard 1 flaps
twice, shard 2 is killed for 2.5 s, shard 0 hangs for 2 s.  Each request
is submitted once; failover is the only healing.  Measured: the outcome
census, the failover counter and wall time.

Gates (exit nonzero on failure):

* **determinism** — rebuilding the storm trace from the scenario
  yields a byte-identical event log, always;
* **conservation** — ``FleetStats.lost == 0``, always;
* **healing** — every request is served (``served == requests``),
  always: with one replica of every key alive at each moment of the
  storm, failover alone answers them all.

``--json BENCH_replay.json`` is uploaded by CI's replay-smoke job.
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro import MGDiffNet, PoissonProblem2D
from repro.serve import (
    FleetConfig, ReplayHarness, ServerConfig, ShardedFleet, build_trace,
    event_log, load_scenario,
)

try:
    from .common import bench_cli, report, write_bench_json
except ImportError:  # pragma: no cover - script mode
    from common import bench_cli, report, write_bench_json

RESOLUTION = 16
BASE_FILTERS = 4
DEPTH = 1
OMEGA_DIM = 4
SCENARIO = Path(__file__).resolve().parent / "scenarios" / "storm.json"

# Storm replay: 8 s of scenario time crushed 4x by default.
TIME_SCALE = 0.25


def _storm_fleet(time_scale: float) -> ShardedFleet:
    problem = PoissonProblem2D(RESOLUTION)
    model = MGDiffNet(ndim=2, base_filters=BASE_FILTERS, depth=DEPTH,
                      rng=42)
    fleet = ShardedFleet(FleetConfig(
        shards=3, replicas=2,
        # Half the scripted 2 s hang (in replay time): the hung shard is
        # ejected mid-fault rather than stalling its queue to the end.
        shard_timeout_s=1.0 * time_scale,
        server=ServerConfig(max_batch=8, max_wait_ms=0.5, workers=1,
                            cache_bytes=0)))
    for name in ("m0", "m1", "m2"):
        fleet.register_model(name, model, problem)
    return fleet


def _run_storm(scenario_path: Path, time_scale: float) -> dict:
    """Replay the committed storm."""
    scenario = load_scenario(scenario_path)
    fleet = _storm_fleet(time_scale)
    with fleet:
        harness = ReplayHarness(fleet, scenario, time_scale=time_scale,
                                omega_dim=OMEGA_DIM)
        rep = harness.run()
    # Same (scenario, seed) expanded again must render byte-identically.
    replayed = event_log(build_trace(scenario, omega_dim=OMEGA_DIM))
    s = rep.stats
    return {"scenario": rep.scenario, "seed": rep.seed,
            "time_scale": time_scale, "events": rep.events,
            "requests": rep.requests, "outcomes": rep.outcomes,
            "wall_s": rep.wall_s, "served": rep.served,
            "failovers": s.failovers, "lost": s.lost,
            "deterministic": replayed == rep.log}


def _run(scenario_path: Path = SCENARIO,
         time_scale: float = TIME_SCALE) -> dict:
    return {"resolution": RESOLUTION, "base_filters": BASE_FILTERS,
            "depth": DEPTH, "storm": _run_storm(scenario_path, time_scale)}


def _report(result: dict) -> None:
    st = result["storm"]
    report("replay: scripted storm",
           ["scenario", "requests", "served", "failovers", "lost",
            "wall_s"],
           [[st["scenario"], st["requests"], st["served"], st["failovers"],
             st["lost"], round(st["wall_s"], 2)]])


def _gate(result: dict) -> int:
    """Determinism, conservation and healing."""
    status = 0
    st = result["storm"]
    if not st["deterministic"]:
        print("FAIL: same (scenario, seed) did not replay to a "
              "byte-identical event log")
        status = 1
    if st["requests"] == 0:
        print("FAIL: the storm produced no requests")
        status = 1
    if st["lost"] != 0:
        print(f"FAIL: storm fleet lost {st['lost']} requests "
              f"(conservation violated under scripted faults)")
        status = 1
    if st["served"] != st["requests"]:
        print(f"FAIL: storm fleet served {st['served']} of "
              f"{st['requests']} requests (outcomes {st['outcomes']})")
        status = 1
    if status == 0:
        print(f"storm gates ok: {st['requests']} requests, all served, "
              f"lost=0, {st['failovers']} failovers, log deterministic")
    return status


def test_replay_bench(benchmark):
    # The shape under test is conservation, determinism and healing.
    result = benchmark.pedantic(lambda: _run(time_scale=0.25),
                                rounds=1, iterations=1)
    _report(result)
    st = result["storm"]
    assert st["deterministic"]
    assert st["requests"] > 0
    assert st["lost"] == 0
    assert st["served"] == st["requests"]


if __name__ == "__main__":
    def extra(p):
        p.add_argument("--scenario", default=str(SCENARIO), metavar="PATH",
                       help="scenario JSON to replay")
        p.add_argument("--time-scale", type=float, default=TIME_SCALE,
                       help="timestamp multiplier (0.25 = 4x speed)")
        p.add_argument("--json", default=None, metavar="PATH",
                       help="also write a JSON artifact (used by CI)")

    args = bench_cli("bench_replay", extra_args=extra)
    result = _run(Path(args.scenario), args.time_scale)
    _report(result)
    status = _gate(result)
    if args.json:
        write_bench_json(args.json, "replay", result,
                         gate="pass" if status == 0 else "fail")
        print(f"wrote {args.json}")
    sys.exit(status)
