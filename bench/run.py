"""Run the benchmark.

Two ways in, one code path underneath.

**One pass of one workload** (what ``BENCHMARK.json``'s ``command`` is
given)::

    python3 -m bench.run --workload NAME --seed N --seconds S --trace 0|1

prints, as the last line of standard output, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` — every
``end_to_end`` metric for ``--trace 0``, every ``per_layer`` metric for
``--trace 1`` (a layer the workload does not exercise reads 0).

**The whole suite**::

    python -m bench.run [--workload NAME]... [--seed N] [--quick] [--out FILE]

runs each workload untraced, then traced, prints every metric by name
with its unit and writes one JSON result (host header, metrics, spans).
``--quick`` shrinks repeat counts only: one worker process per pass and a
one-second budget; sizes stay fixed.

Each pass runs in worker subprocesses (``bench.worker``), one after the
other, so nothing here competes with the measurement for the cores.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

import numpy as np

from . import harness
from .workloads import WORKLOADS

ROOT = harness.ROOT
CACHE_DIR = ROOT / "bench" / ".cache"
WORKER_TIMEOUT_S = 170
QUICK_SECONDS = 1.0
FINGERPRINT_TOL = 1e-5


def _worker_env() -> dict:
    """The repository on the import path; every cache the program may
    write redirected inside the checkout."""
    env = dict(os.environ)
    path = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        path.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(path)
    env["REPRO_JIT_CACHE"] = str(CACHE_DIR / "jit_kernels")
    env["REPRO_AUTOTUNE_CACHE"] = str(CACHE_DIR / "conv_autotune.json")
    env["REPRO_TILE_AUTOTUNE_CACHE"] = str(CACHE_DIR / "tile_autotune.json")
    return env


def _run_worker(workload: str, seed: int, part: int, seconds: float,
                trace: int) -> dict:
    cmd = [sys.executable, "-m", "bench.worker", "--workload", workload,
           "--seed", str(seed), "--part", str(part),
           "--seconds", repr(seconds), "--trace", str(trace),
           "--spawned-at", repr(time.time())]
    proc = subprocess.run(cmd, cwd=ROOT, env=_worker_env(), text=True,
                          stdout=subprocess.PIPE, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker {part} exited with "
                           f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _fingerprints_disagree(parts: list[dict]) -> list[str]:
    first = np.asarray(parts[0]["fingerprint"])
    return [f"part {i} produced a different field than part 0"
            for i, p in enumerate(parts[1:], start=1)
            if not np.allclose(p["fingerprint"], first, rtol=0,
                               atol=FINGERPRINT_TOL)]


def run_pass(workload: str, seed: int, seconds: float, trace: int,
             quick: bool = False) -> dict:
    """One untraced or traced pass; returns the contract's result object
    plus a ``detail`` entry (per-part numbers or spans) for the suite."""
    spec = harness.load_spec()
    plan = WORKLOADS[workload]
    if trace:
        out = _run_worker(workload, seed, 0, seconds, 1)
        values = {m["name"]: 0.0 for m in spec["per_layer"]}
        unknown = set(out["metrics"]) - set(values)
        if unknown:
            raise RuntimeError(f"{workload}: metrics not in BENCHMARK.json: "
                               f"{sorted(unknown)}")
        values.update(out["metrics"])
        failures = out["failures"]
        attempted, failed = max(1, len(out["metrics"])), len(failures)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        detail = {"run_id": out["run_id"], "spans": out["spans"],
                  "measured": sorted(out["metrics"])}
    else:
        n_parts = 1 if quick else plan.parts
        parts = [_run_worker(workload, seed, k, seconds / n_parts, 0)
                 for k in range(n_parts)]
        failures = [f for p in parts for f in p["failures"]]
        if plan.replicated:
            failures += _fingerprints_disagree(parts)
        medians = [harness.median(p["op_ms"]) for p in parts]
        op_ms = (sum(medians) if plan.combine == "sum" else
                 harness.median([x for p in parts for x in p["op_ms"]]))
        values = {
            "op_ms": op_ms,
            "work_per_s": (sum(p["items"] for p in parts)
                           / sum(p["wall_s"] for p in parts)),
            "peak_rss_mb": harness.median([p["peak_rss_mb"] for p in parts]),
            "setup_s": harness.median([p["setup_s"] for p in parts]),
        }
        attempted = sum(p["attempted"] for p in parts)
        failed = sum(p["failed"] for p in parts) + len(failures)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        if set(values) != set(units):
            raise RuntimeError("end_to_end metrics out of step with "
                               "BENCHMARK.json")
        detail = {"parts": [{k: v for k, v in p.items() if k != "fingerprint"}
                            for p in parts]}
    return {
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in values.items()},
        "failures": failures,
        "detail": detail,
    }


def _contract_line(result: dict) -> str:
    return json.dumps({k: result[k] for k in
                       ("correct", "attempted", "failed", "metrics")})


def _print_metrics(workload: str, label: str, result: dict,
                   only: set | None = None) -> None:
    status = "ok" if result["correct"] else "FAILED"
    print(f"\n{workload} [{label}]  {status}  "
          f"attempted={result['attempted']} failed={result['failed']}")
    for failure in result["failures"]:
        print(f"  ! {failure}")
    for name, m in result["metrics"].items():
        if only is None or name in only:
            print(f"  {name:<42}{m['value']:>16.6g} {m['unit']}")


def run_suite(workloads: list[str], seed: int, quick: bool,
              out: str | None) -> int:
    spec = harness.load_spec()
    seconds = QUICK_SECONDS if quick else float(spec["run_seconds"])
    doc = {"host": harness.host_header(seed, quick),
           "run_seconds": seconds, "workloads": {}}
    ok = True
    for workload in workloads:
        t0 = time.perf_counter()
        untraced = run_pass(workload, seed, seconds, 0, quick)
        traced = run_pass(workload, seed, seconds, 1, quick)
        _print_metrics(workload, "end to end", untraced)
        _print_metrics(workload, "per layer", traced,
                       only=set(traced["detail"]["measured"]))
        print(f"  ({time.perf_counter() - t0:.1f} s)")
        ok = ok and untraced["correct"] and traced["correct"]
        doc["workloads"][workload] = {
            "end_to_end": {k: v["value"]
                           for k, v in untraced["metrics"].items()},
            "per_layer": {k: traced["metrics"][k]["value"]
                          for k in traced["detail"]["measured"]},
            "attempted": untraced["attempted"] + traced["attempted"],
            "failed": untraced["failed"] + traced["failed"],
            "failures": untraced["failures"] + traced["failures"],
            "parts": untraced["detail"]["parts"],
            "span_run_id": traced["detail"]["run_id"],
            "span_fields": ["span_id", "parent_id", "name", "start", "end"],
            "spans": traced["detail"]["spans"],
        }
    if out:
        with open(out, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        print(f"\nwrote {out}")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="bench.run", description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                    help="workload to run (suite mode: repeatable; "
                         "default all)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float,
                    help="measuring budget of a single pass")
    ap.add_argument("--trace", type=int, choices=(0, 1),
                    help="single pass: 0 end-to-end metrics, 1 per-layer")
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--out", help="suite mode: write the JSON result here")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print("bench.run: src/repro not found next to bench/ — "
              "nothing to measure", file=sys.stderr)
        return 2
    if args.trace is None:
        return run_suite(args.workload or list(WORKLOADS), args.seed,
                         args.quick, args.out)
    if not args.workload or len(args.workload) != 1 or args.seconds is None:
        ap.error("a single pass needs exactly one --workload and --seconds")
    result = run_pass(args.workload[0], args.seed, args.seconds, args.trace)
    for failure in result["failures"]:
        print(f"! {failure}", file=sys.stderr)
    print(_contract_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
