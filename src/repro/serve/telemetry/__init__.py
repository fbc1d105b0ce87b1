"""Unified telemetry for the serving stack: tracing + metrics.

Two halves; the tracer runs on one forgeable clock:

* :mod:`~repro.serve.telemetry.trace` — per-request spans (queue wait,
  batch collect, forward, tile compute, shard attempt)
  ring-buffered per tracer and exportable as deterministic jsonl.
* :mod:`~repro.serve.telemetry.metrics` — named counters / quantile
  sketches, with the stack's legacy stats dataclasses
  re-registered as read-time views.

:class:`Telemetry` bundles both.  Tracing is a null object, not a
``None`` seam: every layer that can open a span (fleet, server,
batcher, tiling) holds :data:`NULL_TRACER` by default and
every span slot defaults to :data:`NULL_SPAN`, so span sites are
unconditional and a traced, a sampled-out and a telemetry-off request
run the same code.  ``enable_telemetry`` on a server or fleet swaps the
bundle's real tracer into every layer underneath and names the stack's
numbers in the registry.

Quickstart::

    tel = Telemetry()
    fleet.enable_telemetry(tel)
    ... serve traffic ...
    print(format_summary(summarize_spans(tel.tracer.spans())))
    Path("metrics.json").write_text(tel.metrics.to_json())
"""

from __future__ import annotations

import time

from .metrics import MetricsRegistry, QuantileSketch
from .trace import (NULL_SPAN, NULL_TRACER, NullSpan, NullTracer, Span,
                    Tracer, export_jsonl, format_summary, parse_jsonl,
                    summarize_spans)

__all__ = [
    "Telemetry",
    "Span", "Tracer", "NullSpan", "NullTracer", "NULL_SPAN", "NULL_TRACER",
    "QuantileSketch", "MetricsRegistry",
    "export_jsonl", "parse_jsonl", "summarize_spans", "format_summary",
]


class Telemetry:
    """One tracer on one clock, plus one metrics registry.

    ``clock`` must be monotonic; pass a clock that moves only when
    told to (the fleet simulation's ``VirtualClock``) for
    deterministic span logs.  ``trace_sample=N`` keeps one request
    trace in N;
    ``trace_capacity`` bounds the span ring.
    """

    def __init__(self, clock=time.monotonic, *, trace_capacity: int = 8192,
                 trace_sample: int = 1) -> None:
        self.clock = clock
        self.tracer = Tracer(clock=clock, capacity=trace_capacity,
                             sample_every=trace_sample)
        self.metrics = MetricsRegistry()
