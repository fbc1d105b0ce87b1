"""The five workloads.

Each module ``bench.workloads.<name>`` imports ``repro`` and exposes

``make_inputs(seed, part) -> dict[str, np.ndarray]``
    everything the program will see, generated from the seed alone;
``setup(inputs) -> state``
    construction plus warm-up, run cold in a fresh process (this is what
    ``setup_s`` times, together with the imports);
``measure(state, seconds) -> Measured``
    the untraced timed phase;
``check(state, measured) -> list[str]``
    correctness of what ``measure`` produced (one string per failure);
``trace(state, inputs, seconds, recorder) -> (metrics, failures)``
    the traced pass: per-layer metrics for this workload;
``teardown(state)``
    stops whatever ``setup`` started.

This file only holds what the parent process needs to know without
importing ``repro``: how many worker processes a run is split over and
how their samples combine.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Plan:
    """How one untraced run of a workload is spread over processes.

    ``parts`` fresh worker processes each set the workload up cold and
    measure for ``seconds / parts``; the run's ``setup_s`` and
    ``peak_rss_mb`` are medians over them.  ``combine`` says how their
    operation timings become ``op_ms``: ``"pool"`` takes the median of
    all samples, ``"sum"`` adds the per-part medians (the parts are the
    pieces of one larger operation).  ``replicated`` marks workloads
    whose parts get identical inputs, so their output fingerprints must
    agree.
    """

    parts: int = 3
    combine: str = "pool"
    replicated: bool = False


WORKLOADS: dict[str, Plan] = {
    "train_mg3d": Plan(),
    "train_dp2d": Plan(),
    "predict_tiled3d": Plan(replicated=True),
    # One omega per part: op_ms is the time to solve the three-omega set.
    "solve_gmg3d": Plan(combine="sum"),
    "serve_fleet2d": Plan(),
}


@dataclass
class Measured:
    """What one worker's untraced timed phase produced."""

    op_ms: list                      # wall of each headline operation
    items: float                     # work items completed ...
    wall_s: float                    # ... in this much timed wall
    attempted: int
    failed: int = 0
    fingerprint: list = field(default_factory=list)
    keep: dict = field(default_factory=dict)   # outputs for check()
