"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper at
downscaled size (its docstring names which, and the sizes it runs at),
prints the paper-style rows, and writes a CSV under
``benchmarks/results/``.

Every ``bench_*.py`` accepts a shared CLI when run as a script::

    python benchmarks/bench_fig2_epoch_time.py --backend numpy --dtype float64

``--backend`` selects a registered array backend (``repro.backend``) and
``--dtype`` the default floating precision, so backends can be
A/B-compared from the command line on identical workloads.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Sequence

import numpy as np

from repro import MGDiffNet, MGTrainConfig
from repro.backend import available_backends, set_backend, set_default_dtype
from repro.utils import format_table, write_csv

RESULTS_DIR = Path(__file__).resolve().parent / "results"

BENCH_SCHEMA_VERSION = 1


def write_bench_json(path: str | Path, bench: str, result: dict,
                     gate: str | None = None) -> Path:
    """Write one ``BENCH_*.json`` CI artifact on the shared schema.

    Every emitter goes through here so artifacts stay machine-comparable
    across benchmarks and PRs::

        {"schema": 1, "bench": <name>,
         "backend": <active backend>, "dtype": <default dtype>,
         "conv_plan": "auto",
         "gate": "pass" | "fail" | "skip:<reason>" | null,
         "result": {...}}                       # bench-specific payload

    ``gate`` records the outcome of the bench's own pass/fail (or why it
    was skipped, e.g. no C compiler), so CI can distinguish "regressed"
    from "could not measure here".
    """
    from repro.backend import get_backend, get_default_dtype

    payload = {
        "schema": BENCH_SCHEMA_VERSION,
        "bench": bench,
        "backend": get_backend().name,
        "dtype": np.dtype(get_default_dtype()).name,
        # Constant (there is one conv engine): kept so trajectory rows
        # stay comparable with those recorded before.
        "conv_plan": "auto",
        "gate": gate,
        "result": result,
    }
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2))
    return path


def report(name: str, header: Sequence[str], rows: list[Sequence]) -> None:
    """Print a paper-style table and persist it as CSV."""
    print(f"\n=== {name} ===")
    print(format_table(header, rows))
    write_csv(RESULTS_DIR / f"{name}.csv", header, rows)


def add_backend_args(parser: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """Attach the shared ``--backend``/``--dtype`` flags."""
    parser.add_argument(
        "--backend", default=None, metavar="NAME",
        help=f"array backend to activate (registered: {', '.join(available_backends())})")
    parser.add_argument(
        "--dtype", default=None, choices=["float32", "float64"],
        help="default floating dtype for tensors built from Python data")
    return parser


def bench_cli(description: str = "repro benchmark",
              argv: Sequence[str] | None = None,
              extra_args=None) -> argparse.Namespace:
    """Parse the shared benchmark CLI and apply the backend selection.

    ``extra_args`` is an optional callable receiving the parser so a
    benchmark can add its own flags.  Returns the parsed namespace.
    """
    parser = argparse.ArgumentParser(description=description)
    add_backend_args(parser)
    if extra_args is not None:
        extra_args(parser)
    args = parser.parse_args(argv)
    if args.backend:
        set_backend(args.backend)
    if args.dtype:
        set_default_dtype(args.dtype)
    return args


def small_model_2d(rng: int = 42, base_filters: int = 8,
                   depth: int = 2) -> MGDiffNet:
    return MGDiffNet(ndim=2, base_filters=base_filters, depth=depth, rng=rng)


def small_model_3d(rng: int = 42, base_filters: int = 8,
                   depth: int = 2) -> MGDiffNet:
    return MGDiffNet(ndim=3, base_filters=base_filters, depth=depth, rng=rng)


def bench_config(max_epochs: int = 30, restriction_epochs: int = 3,
                 batch_size: int = 8, lr: float = 3e-3) -> MGTrainConfig:
    """Downscaled training budget shared by the table benchmarks."""
    return MGTrainConfig(batch_size=batch_size, lr=lr,
                         restriction_epochs=restriction_epochs,
                         max_epochs_per_level=max_epochs,
                         patience=8, min_delta=5e-4)
