"""Request tracing: spans, a ring-buffered tracer, deterministic export.

The serving stack's question after PR 8 was never "how many requests
failed" — the counters pin that — but "where did *this* request's time
go": queue wait vs batch collect vs tile fan-out vs shard hops vs a
hedge that fired.  A :class:`Span` is one timed stage; a
:class:`Tracer` hands them out, stamps them from a forgeable monotonic
clock, and keeps the most recent ones in a bounded ring so tracing can
stay on in production without growing memory.

Design rules that make the golden-trace tests possible:

* **Forgeable clock** — the tracer never calls ``time`` directly; it
  calls whatever ``clock`` it was built with.  Under a
  :class:`~repro.serve.replay.VirtualClock` every timestamp is a pure
  function of the replayed trace, so the exported jsonl is
  byte-identical across runs (same contract as
  :func:`~repro.serve.replay.event_log`).
* **Sequential span ids** — ids are a process-local counter, not
  uuids, so the export needs no scrubbing to compare equal.
* **No-op when off** — the disabled tracer is :data:`NULL_TRACER`; it
  is falsy, returns the shared :data:`NULL_SPAN` from every call, and
  allocates nothing.  Every layer holds it until telemetry is enabled,
  so span sites are unconditional: off costs a no-op call, not a fork.
* **Deterministic rendering** — :func:`export_jsonl` sorts keys and
  rounds every float to nanoseconds, exactly like the replay event
  log.

Propagation is by value, not by ambient context: the span object *is*
the context token.  ``server.submit(..., trace_parent=span)`` hangs
child stages under a fleet attempt; ``PredictRequest.trace`` carries
the token through the queue to the batcher and the forward.
"""

from __future__ import annotations

import json
import time
from collections import deque
from itertools import count

__all__ = [
    "Span", "Tracer", "NullSpan", "NullTracer", "NULL_SPAN", "NULL_TRACER",
    "export_jsonl", "parse_jsonl", "summarize_spans", "format_summary",
]


def _json_value(value):
    """Coerce one attribute value into a deterministic JSON scalar."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, float):
        return round(value, 9)
    if isinstance(value, int):
        return value
    return str(value)


class Span:
    """One timed stage of a request's life.

    Usable as a context manager (``with tracer.start(...):``) or ended
    explicitly with :meth:`finish`; both are idempotent — the first
    finish wins, later ones are no-ops, so an error path can finish a
    span the success path would also have closed.
    """

    __slots__ = ("span_id", "parent_id", "name", "start", "end", "attrs",
                 "_clock")

    def __init__(self, clock, span_id: int, parent_id: int | None,
                 name: str, start: float, attrs: dict) -> None:
        self._clock = clock
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.end: float | None = None
        self.attrs = attrs

    def set(self, **attrs) -> "Span":
        self.attrs.update(attrs)
        return self

    def finish(self, **attrs) -> "Span":
        if self.end is None:
            if attrs:
                self.attrs.update(attrs)
            self.end = self._clock()
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None and self.end is None:
            self.attrs.setdefault("error", exc_type.__name__)
        self.finish()

    def __bool__(self) -> bool:
        return True

    def to_dict(self) -> dict:
        end = self.start if self.end is None else self.end
        d = {
            "span_id": self.span_id,
            "name": self.name,
            "start": round(self.start, 9),
            "end": round(end, 9),
            "dur": round(end - self.start, 9),
        }
        if self.parent_id is not None:
            d["parent_id"] = self.parent_id
        if self.attrs:
            d["attrs"] = {str(k): _json_value(v)
                          for k, v in sorted(self.attrs.items())}
        return d

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "open" if self.end is None else f"{self.end - self.start:.6f}s"
        return f"Span({self.span_id} {self.name!r} {state})"


class NullSpan:
    """The shared no-op span: absorbs every call, parents only itself."""

    __slots__ = ()

    span_id = None
    parent_id = None
    name = ""
    start = 0.0
    end = 0.0
    attrs: dict = {}

    def set(self, **attrs) -> "NullSpan":
        return self

    def finish(self, **attrs) -> "NullSpan":
        return self

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    def __bool__(self) -> bool:
        return False


NULL_SPAN = NullSpan()


class Tracer:
    """Hands out spans, stamps them, keeps the newest in a ring buffer.

    ``sample_every=N`` traces one root span (and its whole subtree) out
    of every N — child calls whose parent sampled out get
    :data:`NULL_SPAN` back, so an unsampled request costs nothing
    downstream.  ``capacity`` bounds memory: the ring drops the oldest
    spans first.
    """

    def __init__(self, clock=time.monotonic, capacity: int = 8192,
                 sample_every: int = 1) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self._clock = clock
        # Lock-free hot path: itertools.count() is atomic in CPython,
        # and deque append/clear/iteration are thread-safe, so start()
        # never takes a lock — that is most of the tracing overhead
        # budget on the request path.
        self._ring: deque[Span] = deque(maxlen=int(capacity))
        self._ids = count()
        self._roots = count()
        self._sample_every = int(sample_every)

    def __bool__(self) -> bool:
        return True

    def start(self, name: str, parent=None, **attrs):
        """Open a span.  ``parent`` is a prior span (the context token)
        or ``None`` for a new root; a root may sample out, in which
        case the caller gets :data:`NULL_SPAN` and every descendant
        call short-circuits on it."""
        if parent is None:
            if self._sample_every > 1 and next(self._roots) \
                    % self._sample_every:
                return NULL_SPAN
            parent_id = None
        elif not parent:
            return NULL_SPAN
        else:
            parent_id = parent.span_id
        span = Span(self._clock, next(self._ids), parent_id,
                    name, self._clock(), attrs)
        self._ring.append(span)
        return span

    def spans(self) -> list[Span]:
        """The retained spans, oldest first (stable id order)."""
        return list(self._ring)

    def clear(self) -> None:
        self._ring.clear()

    def export_jsonl(self) -> str:
        return export_jsonl(self.spans())


class NullTracer:
    """The disabled tracer: falsy, allocation-free, returns NULL_SPAN."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return False

    def start(self, name: str, parent=None, **attrs) -> NullSpan:
        return NULL_SPAN

    def spans(self) -> list:
        return []

    def clear(self) -> None:
        return None

    def export_jsonl(self) -> str:
        return ""


NULL_TRACER = NullTracer()


# --------------------------------------------------------------------- #
# Export / summarize
# --------------------------------------------------------------------- #
def export_jsonl(spans) -> str:
    """Render spans as deterministic jsonl (sorted keys, ns-rounded).

    Accepts :class:`Span` objects or already-rendered dicts; the output
    is ordered by span id, so two identical executions compare equal
    byte-for-byte — the golden-trace contract.
    """
    dicts = [s if isinstance(s, dict) else s.to_dict() for s in spans]
    dicts.sort(key=lambda d: d["span_id"])
    return "".join(json.dumps(d, sort_keys=True) + "\n" for d in dicts)


def parse_jsonl(text: str) -> list[dict]:
    """Inverse of :func:`export_jsonl` (blank lines ignored)."""
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    idx = min(len(sorted_values) - 1, int(round(q * (len(sorted_values) - 1))))
    return sorted_values[idx]


def summarize_spans(spans) -> dict:
    """Per-stage latency breakdown: name -> count/total/mean/p50/p99/max.

    The offline half of ``repro trace summarize``: takes Span objects
    or parsed jsonl dicts, groups by span name (the stage), and reduces
    durations.  Exact percentiles are fine here — this runs on an
    exported file, not on the serving hot path.
    """
    groups: dict[str, list[float]] = {}
    for s in spans:
        d = s if isinstance(s, dict) else s.to_dict()
        groups.setdefault(d["name"], []).append(float(d.get("dur", 0.0)))
    out: dict[str, dict] = {}
    for name, durs in sorted(groups.items()):
        durs.sort()
        total = sum(durs)
        out[name] = {
            "count": len(durs),
            "total_s": total,
            "mean_s": total / len(durs),
            "p50_s": _percentile(durs, 0.50),
            "p99_s": _percentile(durs, 0.99),
            "max_s": durs[-1],
        }
    return out


def format_summary(summary: dict) -> str:
    """Render a :func:`summarize_spans` result as an aligned table,
    widest total first (where the time actually went)."""
    header = ["stage", "count", "total_ms", "mean_ms", "p50_ms",
              "p99_ms", "max_ms"]
    rows = [[name, str(st["count"])] +
            [f"{st[k] * 1e3:.3f}" for k in
             ("total_s", "mean_s", "p50_s", "p99_s", "max_s")]
            for name, st in sorted(
                summary.items(), key=lambda kv: -kv[1]["total_s"])]
    widths = [max(len(header[i]), *(len(r[i]) for r in rows)) if rows
              else len(header[i]) for i in range(len(header))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for r in rows:
        lines.append("  ".join(c.rjust(w) if i else c.ljust(w)
                               for i, (c, w) in enumerate(zip(r, widths))))
    return "\n".join(lines)
