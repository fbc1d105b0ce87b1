"""Measurement plumbing shared by every workload.

Four small things live here: an in-memory span recorder (with the
self-time arithmetic the per-layer metrics rest on), the percentile
rule, the two load generators (open loop timed from each request's due
time, closed loop with a fixed number outstanding) and the host header
stamped on every result.  Nothing in this module imports ``repro``.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import subprocess
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"

# Percentiles a timing may be reported at, lowest first.
PERCENTILE_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9)
# A percentile is only reported with this many samples beyond it.
MIN_TAIL_SAMPLES = 10


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


# --------------------------------------------------------------------- #
# Spans
# --------------------------------------------------------------------- #
class Span:
    """One timed interval.  ``finish`` is idempotent; also a context
    manager.  Attribute names match ``repro.serve.telemetry.Span`` so
    :func:`self_times` reads either kind."""

    __slots__ = ("span_id", "parent_id", "name", "start", "end", "run_id",
                 "_recorder")

    def __init__(self, recorder: "SpanRecorder", span_id: int,
                 parent_id: int | None, name: str) -> None:
        self._recorder = recorder
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.run_id = recorder.run_id
        self.end: float | None = None
        self.start = recorder.clock()

    def finish(self, **_attrs) -> "Span":
        if self.end is None:
            self.end = self._recorder.clock()
        return self

    def __enter__(self) -> "Span":
        self._recorder._stack.append(self)
        return self

    def __exit__(self, *exc) -> None:
        self.finish()
        self._recorder._stack.remove(self)

    def to_list(self) -> list:
        return [self.span_id, self.parent_id, self.name, self.start, self.end]


class SpanRecorder:
    """Keeps every span of one traced run in memory.

    ``with rec.span(name):`` nests under the innermost open span.
    ``rec.start(name, parent=...)`` opens a span that the caller ends
    with ``finish()`` — the shape ``tiled_forward(tracer=...)`` expects,
    so the recorder can be handed to it directly.  Spans named
    ``bench.*`` are harness glue; every other span is named after the
    layer whose public function it wraps.
    """

    def __init__(self, run_id: str, clock=time.perf_counter) -> None:
        self.run_id = run_id
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def start(self, name: str, parent=None, **_attrs) -> Span:
        if parent is None and self._stack:
            parent = self._stack[-1]
        span = Span(self, len(self.spans),
                    None if parent is None else parent.span_id, name)
        self.spans.append(span)
        return span

    span = start


def self_times(spans) -> dict[int, float]:
    """Duration of each span minus the part of it its children cover.

    Children that overlap each other (parallel tiles) are counted once,
    and a child is clipped to its parent's interval.
    """
    children: dict[int, list] = defaultdict(list)
    for s in spans:
        if s.parent_id is not None:
            children[s.parent_id].append(s)
    out: dict[int, float] = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children[s.span_id], key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.span_id] = (s.end - s.start) - covered
    return out


def self_seconds_by_name(spans) -> dict[str, float]:
    """Total self time per span name."""
    selfs = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.name] += selfs[s.span_id]
    return dict(out)


def unattributed_frac(spans) -> float:
    """Share of the traced wall (root spans) that no layer span covers:
    the self time of the ``bench.*`` glue spans."""
    wall = sum(s.end - s.start for s in spans if s.parent_id is None)
    glue = sum(t for name, t in self_seconds_by_name(spans).items()
               if name.startswith("bench."))
    return glue / wall if wall > 0 else 0.0


# --------------------------------------------------------------------- #
# Percentiles
# --------------------------------------------------------------------- #
def percentile(values, q: float) -> float:
    """Linear-interpolated percentile; a percentile that reaches into
    failed requests (latency ``inf``) is ``inf``, not NaN."""
    a = np.asarray(values, dtype=np.float64)
    with np.errstate(invalid="ignore"):
        p = float(np.percentile(a, q))
    return float("inf") if np.isnan(p) and np.isinf(a).any() else p


def median(values) -> float:
    return percentile(values, 50.0)


def tail_percentile(n: int) -> float:
    """The highest ladder percentile with at least ten samples beyond it
    (the median when the sample is too small for any tail)."""
    best = PERCENTILE_LADDER[0]
    for q in PERCENTILE_LADDER:
        if n * (100.0 - q) / 100.0 >= MIN_TAIL_SAMPLES - 1e-6:
            best = q
    return best


# --------------------------------------------------------------------- #
# Repeating an operation for a time budget
# --------------------------------------------------------------------- #
def run_for(op, seconds: float, min_ops: int = 1) -> list[float]:
    """Call ``op()`` back to back for about ``seconds``; wall time of each
    call.  Another call starts only while at least half of a typical one
    still fits, so one long operation cannot double the run."""
    walls: list[float] = []
    begin = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        op()
        t1 = time.perf_counter()
        walls.append(t1 - t0)
        if len(walls) < min_ops:
            continue
        if (t1 - begin) + 0.5 * median(walls) > seconds:
            return walls


def peak_rss_mb() -> float:
    """Peak resident set of this process so far (Linux: ru_maxrss in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------- #
# Load generators (one thread; completions arrive on server threads)
# --------------------------------------------------------------------- #
@dataclass
class LoadResult:
    """Outcome of one load phase.  Latencies are milliseconds; a request
    that failed or was refused has latency ``inf`` so it misses any
    limit."""

    latency_ms: list = field(default_factory=list)
    late_ms: list = field(default_factory=list)
    sent: int = 0
    failed: int = 0
    wall_s: float = 0.0
    outstanding_at_end: int = 0
    replies: dict = field(default_factory=dict)

    @property
    def completed(self) -> int:
        return self.sent - self.failed


class _Collector:
    """Completion bookkeeping shared by both generators."""

    def __init__(self, n: int, keep) -> None:
        self.result = LoadResult(latency_ms=[float("inf")] * n)
        self.keep = frozenset(keep)
        self.lock = threading.Lock()
        self.outstanding = 0
        self.idle = threading.Condition(self.lock)
        self.on_complete = None

    def sent(self, i: int, anchor: float, future) -> None:
        with self.lock:
            self.outstanding += 1
        future.add_done_callback(lambda fut: self._done(i, anchor, fut))

    def refused(self) -> None:
        with self.lock:
            self.result.failed += 1

    def _done(self, i: int, anchor: float, fut) -> None:
        now = time.perf_counter()
        ok = not fut.cancelled() and fut.exception() is None
        r = self.result
        if ok:
            r.latency_ms[i] = (now - anchor) * 1e3
            if i in self.keep:
                r.replies[i] = fut.result()
        with self.idle:
            if not ok:
                r.failed += 1
            self.outstanding -= 1
            self.idle.notify_all()
        if self.on_complete is not None:
            self.on_complete()

    def drain(self, timeout: float) -> None:
        with self.idle:
            self.idle.wait_for(lambda: self.outstanding == 0, timeout)


def open_loop(submit, requests, rate: float, keep=(),
              drain_timeout: float = 60.0) -> LoadResult:
    """Send ``requests[i]`` at ``i / rate`` seconds whatever the server
    does.  Latency runs from each request's *due* time, so a stall that
    delays the generator is charged to the requests it delayed;
    ``late_ms`` says how late each send was.  ``submit(request)`` returns
    a ``concurrent.futures.Future``; an exception from it is a refusal.
    """
    col = _Collector(len(requests), keep)
    r = col.result
    t0 = time.perf_counter()
    for i, request in enumerate(requests):
        due = t0 + i / rate
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        r.late_ms.append((time.perf_counter() - due) * 1e3)
        r.sent += 1
        try:
            future = submit(request)
        except Exception:
            col.refused()
            continue
        col.sent(i, due, future)
    with col.lock:
        r.outstanding_at_end = col.outstanding
    col.drain(drain_timeout)
    r.wall_s = time.perf_counter() - t0
    r.failed += col.outstanding          # never answered within the drain
    return r


def closed_loop(submit, requests, concurrency: int, seconds: float,
                keep=(), drain_timeout: float = 60.0) -> LoadResult:
    """Keep ``concurrency`` requests outstanding for ``seconds`` (or until
    ``requests`` runs out); the next request goes out when a reply comes
    back.  Latency runs from the send."""
    col = _Collector(len(requests), keep)
    r = col.result
    slots = threading.Semaphore(concurrency)
    col.on_complete = slots.release
    t0 = time.perf_counter()
    for i, request in enumerate(requests):
        slots.acquire()
        sent_at = time.perf_counter()
        if sent_at - t0 >= seconds:
            break
        r.sent += 1
        try:
            future = submit(request)
        except Exception:
            col.refused()
            slots.release()
            continue
        col.sent(i, sent_at, future)
    col.drain(drain_timeout)
    r.wall_s = time.perf_counter() - t0
    r.failed += col.outstanding
    r.latency_ms = r.latency_ms[:r.sent]
    return r


# --------------------------------------------------------------------- #
# Host header
# --------------------------------------------------------------------- #
_BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "REPRO_THREADS", "REPRO_BACKEND", "REPRO_CONV_PLAN")


def git_sha() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def host_header(seed: int, quick: bool) -> dict:
    """Where and how a result was taken.  Thread settings are recorded
    as found (``None`` = unset); the benchmark never pins them."""
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas_env": {k: os.environ.get(k) for k in _BLAS_ENV},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
        "seed": seed,
        "quick": quick,
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
