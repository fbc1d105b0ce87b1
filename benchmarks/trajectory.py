"""Benchmark trajectory: append run artifacts, compare across history.

Every benchmark in this directory can emit a ``BENCH_*.json`` artifact
(``--json``).  Those files are per-run and git-ignored; this tool folds
them into ``benchmarks/results/trajectory.jsonl`` — one line per run,
committed, so the repo carries its own performance history and CI can
flag regressions against it.

Usage::

    # After a benchmark run: fold the artifact into the trajectory.
    python trajectory.py append BENCH_fleet_scaling.json

    # Gate: compare the newest entry against the previous one.
    python trajectory.py compare --bench fleet_scaling \
        --metric result.rows.2.p99_ms --direction lower --tolerance 0.25

``compare`` exits 0 when there is nothing to compare (fewer than two
entries for the bench, or the metric missing from either side) and when
the latest entry's gates were skipped (e.g. recorded on a host with too
few CPUs — its numbers are real but not comparable).  It exits 1 only
on a genuine regression beyond the tolerance.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

DEFAULT_TRAJECTORY = Path(__file__).parent / "results" / "trajectory.jsonl"


def _git_rev() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=Path(__file__).parent, capture_output=True, text=True,
            timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def _load_entries(path: Path) -> list[dict]:
    if not path.exists():
        return []
    entries = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            entries.append(json.loads(line))
        except ValueError:
            print(f"warning: skipping malformed line in {path}",
                  file=sys.stderr)
    return entries


def _resolve(obj, dotted: str):
    """Walk ``a.b.0.c`` through nested dicts/lists; None if absent."""
    for part in dotted.split("."):
        if isinstance(obj, dict):
            if part not in obj:
                return None
            obj = obj[part]
        elif isinstance(obj, list):
            try:
                obj = obj[int(part)]
            except (ValueError, IndexError):
                return None
        else:
            return None
    return obj


def _skipped_gates(entry: dict) -> list[str]:
    """Result fields like ``skew_gate: "skipped: ..."`` in an entry."""
    result = entry.get("result", {})
    if not isinstance(result, dict):
        return []
    return [k for k, v in result.items()
            if k.endswith("_gate") and isinstance(v, str)
            and v.startswith("skipped")]


def cmd_append(args: argparse.Namespace) -> int:
    artifact = Path(args.artifact)
    try:
        payload = json.loads(artifact.read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {artifact}: {exc}", file=sys.stderr)
        return 1
    entry = {
        "recorded_at": datetime.now(timezone.utc).isoformat(
            timespec="seconds"),
        "git": _git_rev(),
        **payload,
    }
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("a") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")
    print(f"appended {entry.get('bench', '?')} @ {entry['git']} -> {out}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    entries = [e for e in _load_entries(Path(args.file))
               if e.get("bench") == args.bench]
    if len(entries) < 2:
        print(f"compare: {len(entries)} entr"
              f"{'y' if len(entries) == 1 else 'ies'} for "
              f"'{args.bench}' — nothing to compare")
        return 0
    prev, latest = entries[-2], entries[-1]
    skipped = _skipped_gates(latest) or _skipped_gates(prev)
    if skipped:
        print(f"compare: gates skipped on a compared run "
              f"({', '.join(sorted(set(skipped)))}) — not comparable")
        return 0
    prev_v = _resolve(prev, args.metric)
    latest_v = _resolve(latest, args.metric)
    if not isinstance(prev_v, (int, float)) \
            or not isinstance(latest_v, (int, float)):
        print(f"compare: metric '{args.metric}' missing or non-numeric "
              f"(prev={prev_v!r}, latest={latest_v!r}) — skipping")
        return 0
    if args.direction == "higher":
        floor = prev_v * (1.0 - args.tolerance)
        ok = latest_v >= floor
        verdict = (f"{args.metric}: {latest_v:.4g} vs previous "
                   f"{prev_v:.4g} (floor {floor:.4g}, higher is better)")
    else:
        ceiling = prev_v * (1.0 + args.tolerance)
        ok = latest_v <= ceiling
        verdict = (f"{args.metric}: {latest_v:.4g} vs previous "
                   f"{prev_v:.4g} (ceiling {ceiling:.4g}, "
                   f"lower is better)")
    if ok:
        print(f"compare ok: {verdict}")
        return 0
    print(f"REGRESSION: {verdict}")
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_append = sub.add_parser(
        "append", help="fold a BENCH_*.json artifact into the trajectory")
    p_append.add_argument("artifact", help="path to a BENCH_*.json file")
    p_append.add_argument("--output", default=str(DEFAULT_TRAJECTORY),
                          help="trajectory file to append to")
    p_append.set_defaults(func=cmd_append)

    p_compare = sub.add_parser(
        "compare", help="compare the two newest entries of one bench")
    p_compare.add_argument("--bench", required=True,
                           help="bench name as written by the artifact")
    p_compare.add_argument("--metric", required=True,
                           help="dotted path into an entry, e.g. "
                                "result.skew.1.p99_ms")
    p_compare.add_argument("--direction", choices=("higher", "lower"),
                           required=True,
                           help="which way is better for this metric")
    p_compare.add_argument("--tolerance", type=float, default=0.25,
                           help="allowed relative slack (default 0.25)")
    p_compare.add_argument("--file", default=str(DEFAULT_TRAJECTORY),
                           help="trajectory file to read")
    p_compare.set_defaults(func=cmd_compare)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
