"""One worker process: set a workload up cold, then measure or trace it.

Started by ``bench.run`` (never by hand) as
``python -m bench.worker --workload W --seed N --part K --seconds S
--trace 0|1 --spawned-at T``; prints one JSON object as its last line.
``setup_s`` runs from the parent's spawn stamp to the end of ``setup``,
so interpreter start-up and imports are inside it.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time

from . import harness


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="bench.worker")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--part", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    args = ap.parse_args(argv)

    mod = importlib.import_module(f"bench.workloads.{args.workload}")
    inputs = mod.make_inputs(args.seed, args.part)
    state = mod.setup(inputs)
    setup_s = time.time() - args.spawned_at
    try:
        if args.trace:
            rec = harness.SpanRecorder(
                run_id=f"{args.workload}/{args.seed}/{args.part}")
            metrics, failures = mod.trace(state, inputs, args.seconds, rec)
            if set(metrics) != set(mod.PER_LAYER):
                raise RuntimeError(
                    f"{args.workload}: traced metrics do not match PER_LAYER: "
                    f"{sorted(set(metrics) ^ set(mod.PER_LAYER))}")
            out = {"metrics": metrics, "failures": failures,
                   "run_id": rec.run_id,
                   "spans": [s.to_list() for s in rec.spans]}
        else:
            measured = mod.measure(state, args.seconds)
            rss = harness.peak_rss_mb()       # before check() allocates
            failures = mod.check(state, measured)
            out = {"setup_s": setup_s, "peak_rss_mb": rss,
                   "op_ms": measured.op_ms, "items": measured.items,
                   "wall_s": measured.wall_s,
                   "attempted": measured.attempted,
                   "failed": measured.failed,
                   "fingerprint": measured.fingerprint,
                   "failures": failures}
    finally:
        mod.teardown(state)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
