"""Metrics registry: quantile sketches and views.

One queryable surface for every number the serving stack produces:

* :class:`QuantileSketch` — p50/p99 without storing raw samples: a
  geometric-bucket histogram (2% relative resolution) whose memory is
  O(distinct buckets), not O(observations).  ``ServerStats`` and
  ``FleetStats`` read their latency quantiles from one each.

Views (:meth:`MetricsRegistry.register_view`) name numbers the stack
already keeps — ``ServerStats`` / ``FleetStats``, whose event counts
are the fleet's counter ledger — as zero-copy reads over the live
objects.  The registry adds one name per number, never a second copy,
so it cannot drift from the stats the stack reports.  The audit that
can fail is the conservation law itself (``submitted`` == the sum of
outcome terms, i.e. ``lost == 0``), which compares counts taken at
*different* event sites.
"""

from __future__ import annotations

import json
import math
import threading

__all__ = ["QuantileSketch", "MetricsRegistry"]


class QuantileSketch:
    """p50/p99 from geometric buckets — no raw samples retained.

    Observations land in bucket ``ceil(log_gamma(x))`` (``gamma``
    defaults to 1.02: ~2% relative width).  A quantile walks the
    cumulative counts and reports the matched bucket's upper edge, so
    the answer overshoots the true quantile by at most one bucket
    width.  Non-positive observations collapse into a zero bucket.
    """

    __slots__ = ("name", "_gamma", "_log_gamma", "_buckets", "_zero",
                 "count", "total", "_min", "_max", "_lock")

    def __init__(self, name: str, gamma: float = 1.02) -> None:
        if gamma <= 1.0:
            raise ValueError("gamma must be > 1")
        self.name = name
        self._gamma = gamma
        self._log_gamma = math.log(gamma)
        self._buckets: dict[int, int] = {}
        self._zero = 0
        self.count = 0
        self.total = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._lock = threading.Lock()

    def observe(self, x: float) -> None:
        with self._lock:
            self.count += 1
            self.total += x
            self._min = min(self._min, x)
            self._max = max(self._max, x)
            if x <= 0.0:
                self._zero += 1
                return
            idx = math.ceil(math.log(x) / self._log_gamma)
            self._buckets[idx] = self._buckets.get(idx, 0) + 1

    def quantile(self, q: float) -> float:
        """The q-th quantile (q in [0, 1]), to bucket resolution."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        with self._lock:
            if self.count == 0:
                return 0.0
            rank = max(1, math.ceil(q * self.count))
            seen = self._zero
            if rank <= seen:
                return max(0.0, min(self._min, 0.0))
            for idx in sorted(self._buckets):
                seen += self._buckets[idx]
                if rank <= seen:
                    return self._gamma ** idx
            return self._max

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def min(self) -> float:
        return self._min if self.count else 0.0

    @property
    def max(self) -> float:
        return self._max if self.count else 0.0

    def summary(self) -> dict:
        return {"count": self.count, "mean": self.mean, "min": self.min,
                "max": self.max, "p50": self.p50, "p99": self.p99}


class MetricsRegistry:
    """Named instruments plus views over the stack's legacy stats.

    ``histogram`` gets or creates; a name may hold exactly one
    kind.  ``register_view(name, fn)`` binds a zero-arg callable evaluated
    at read time — re-registering the same name replaces the view (enabling
    telemetry twice is harmless).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._hists: dict[str, QuantileSketch] = {}
        self._views: dict[str, object] = {}

    def _check_name(self, name: str, own: dict) -> None:
        for kind in (self._hists, self._views):
            if kind is not own and name in kind:
                raise ValueError(
                    f"metric name {name!r} already registered as a "
                    "different kind")

    def histogram(self, name: str, gamma: float = 1.02) -> QuantileSketch:
        with self._lock:
            inst = self._hists.get(name)
            if inst is None:
                self._check_name(name, self._hists)
                inst = self._hists[name] = QuantileSketch(name, gamma=gamma)
            return inst

    def register_view(self, name: str, fn) -> None:
        with self._lock:
            self._check_name(name, self._views)
            self._views[name] = fn

    def value(self, name: str):
        """Read one metric by name (view names evaluate their callable)."""
        with self._lock:
            if name in self._hists:
                return self._hists[name].summary()
            view = self._views.get(name)
        if view is None:
            raise KeyError(name)
        return view()

    def names(self) -> list[str]:
        with self._lock:
            return sorted(set(self._hists) | set(self._views))

    def snapshot(self) -> dict:
        """Flat name -> value dict of everything, views evaluated now.

        Histograms flatten into ``name.count`` / ``name.mean`` /
        ``name.p50`` / ``name.p99`` so the snapshot stays scalar-only
        (easy to diff, easy to jsonl)."""
        with self._lock:
            hists = {n: h.summary() for n, h in self._hists.items()}
            views = dict(self._views)
        out: dict[str, object] = {}
        for name, summary in hists.items():
            for key in ("count", "mean", "p50", "p99"):
                out[f"{name}.{key}"] = summary[key]
        for name, fn in views.items():
            out[name] = fn()
        return out

    def to_json(self) -> str:
        def scrub(v):
            return round(v, 9) if isinstance(v, float) else v
        return json.dumps({k: scrub(v) for k, v in self.snapshot().items()},
                          sort_keys=True, indent=2) + "\n"

