"""Compare suite results against the bounds in ``BENCHMARK.json``.

    python -m bench.compare BASE.json NEW.json
    python -m bench.compare --base B1.json B2.json ... --new N1.json N2.json ...

One row per workload and end-to-end metric, each with a verdict:

``ok``          the new median is no worse than the base median by more
                than the metric's bound;
``regressed``   it is worse by more than the bound;
``unresolved``  runs of the same side disagree with each other by more
                than the bound, so the comparison cannot tell — unless
                every new run reads better than every base run (``ok``).

A rise in the share of failed operations is always ``regressed``.  The
exit code is nonzero when any row regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

from . import harness


def spread(values: list[float]) -> float:
    """Disagreement between same-side runs as a share of their median:
    interquartile range with four or more runs, full range with fewer."""
    if len(values) < 2:
        return 0.0
    if len(values) >= 4:
        q = statistics.quantiles(values, n=4)
        width = q[2] - q[0]
    else:
        width = max(values) - min(values)
    return width / abs(statistics.median(values))


def verdict(base: list[float], new: list[float], better: str,
            bound: float) -> tuple[str, float]:
    """``(verdict, worsening)``; worsening is the new median's relative
    move in the bad direction (negative = improved)."""
    sign = 1.0 if better == "lower" else -1.0
    base_med, new_med = statistics.median(base), statistics.median(new)
    worse = sign * (new_med - base_med) / abs(base_med)
    if max(spread(base), spread(new)) > bound:
        all_better = (max(new) < min(base) if better == "lower"
                      else min(new) > max(base))
        return ("ok" if all_better else "unresolved"), worse
    return ("regressed" if worse > bound else "ok"), worse


def failed_frac(docs: list[dict], workload: str) -> float:
    runs = [d["workloads"][workload] for d in docs]
    return sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)


def compare(base_docs: list[dict], new_docs: list[dict], spec: dict):
    """Rows ``(workload, metric, base median, new median, worsening,
    verdict)`` for every workload present on both sides."""
    rows = []
    workloads = [w["name"] for w in spec["workloads"]
                 if all(w["name"] in d["workloads"]
                        for d in base_docs + new_docs)]
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            base = [d["workloads"][workload]["end_to_end"][name]
                    for d in base_docs]
            new = [d["workloads"][workload]["end_to_end"][name]
                   for d in new_docs]
            v, worse = verdict(base, new, metric["better"], metric["bound"])
            rows.append((workload, name, statistics.median(base),
                         statistics.median(new), worse, v))
        fb, fn = (failed_frac(docs, workload)
                  for docs in (base_docs, new_docs))
        rows.append((workload, "failed_frac", fb, fn, fn - fb,
                     "regressed" if fn > fb else "ok"))
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="bench.compare", description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("files", nargs="*", help="BASE.json NEW.json")
    ap.add_argument("--base", nargs="+", default=[])
    ap.add_argument("--new", nargs="+", default=[])
    args = ap.parse_args(argv)
    if args.files and (args.base or args.new or len(args.files) != 2):
        ap.error("give either BASE.json NEW.json or --base ... --new ...")
    base_files = args.base or args.files[:1]
    new_files = args.new or args.files[1:]
    if not base_files or not new_files:
        ap.error("need at least one result on each side")

    def load(paths):
        docs = []
        for path in paths:
            with open(path) as fh:
                docs.append(json.load(fh))
        return docs

    rows = compare(load(base_files), load(new_files), harness.load_spec())
    print(f"{'workload':<18}{'metric':<14}{'base':>14}{'new':>14}"
          f"{'worse by':>10}  verdict")
    for workload, name, base, new, worse, v in rows:
        print(f"{workload:<18}{name:<14}{base:>14.6g}{new:>14.6g}"
              f"{worse:>+10.1%}  {v}")
    regressed = [r for r in rows if r[5] == "regressed"]
    unresolved = [r for r in rows if r[5] == "unresolved"]
    print(f"\n{len(rows)} rows: {len(regressed)} regressed, "
          f"{len(unresolved)} unresolved")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
