"""Schedule the lazy graph: fuse chains, interpret, collapse.

``realize_node`` turns one pending :class:`~.graph.LazyArray` into a
concrete buffer.  The only pending node kinds are elementwise and reduce
ops (everything else executes eagerly at record time), so scheduling is
cluster extraction: starting from the node, pending elementwise parents
with a single consumer are inlined into one fused expression; shared or
already-realized parents become the cluster's *leaves*.  A reduce node
fuses its whole elementwise input chain, so e.g. ``sqrt(sum(x*x))`` runs
as one pass over ``x``.

Every cluster runs on the NumPy interpreter, which evaluates the
expression tree op by op and streams a chain through one or two scratch
buffers it owns (never a leaf).  It applies the ufuncs eager NumPy
would, in the same order, so a chain's answer is eager's.
"""

from __future__ import annotations

import threading
from typing import Any

import numpy as np

from .graph import ELEMENTWISE_OPS, LazyArray, REDUCE_OPS

__all__ = ["realize_node", "schedule_stats", "reset_schedule_stats"]

_STATS_LOCK = threading.Lock()
_stats = {
    "clusters": 0,          # fused clusters executed by the interpreter
    "fused_ops": 0,         # elementwise/reduce ops folded into clusters
}


def schedule_stats() -> dict[str, Any]:
    """Snapshot of the scheduler's counters."""
    with _STATS_LOCK:
        return dict(_stats)


def reset_schedule_stats() -> None:
    with _STATS_LOCK:
        for k in _stats:
            _stats[k] = 0


# --------------------------------------------------------------------- #
# Cluster extraction
# --------------------------------------------------------------------- #

class _Cluster:
    """One fused computation: an expression DAG whose leaves are
    ``("in", value)``, a concrete buffer or a float constant."""

    __slots__ = ("expr", "reduce", "axis", "keepdims", "out_shape",
                 "out_dtype", "n_ops")

    def __init__(self) -> None:
        self.expr: tuple | None = None
        self.reduce: str | None = None
        self.axis: tuple[int, ...] = ()
        self.keepdims = False
        self.out_shape: tuple[int, ...] = ()
        self.out_dtype: np.dtype = np.dtype(np.float64)
        self.n_ops = 0


def _extract(node: LazyArray) -> _Cluster:
    """Build the fused cluster rooted at ``node``.

    Shared (multi-consumer) pending parents and reduce parents are
    realized recursively and enter as leaves; single-consumer pending
    elementwise parents are inlined.
    """
    cluster = _Cluster()

    def build(p: Any) -> tuple:
        if not isinstance(p, LazyArray):
            return ("in", float(p))
        if p._buf is not None:
            return ("in", p._buf)
        if p._op in ELEMENTWISE_OPS and p._consumers <= 1:
            cluster.n_ops += 1
            return (p._op,) + tuple(build(q) for q in p._parents)
        return ("in", realize_node(p))

    if node._op in REDUCE_OPS:
        (src,) = node._parents
        cluster.reduce = node._op
        cluster.axis = node._extra["axis"]
        cluster.keepdims = node._extra["keepdims"]
        cluster.n_ops += 1
        if isinstance(src, LazyArray):
            if src._buf is None and src._op in ELEMENTWISE_OPS \
                    and src._consumers <= 1:
                cluster.n_ops += 1
                cluster.expr = (src._op,) + tuple(
                    build(q) for q in src._parents)
            else:
                cluster.expr = build(src)
        else:  # pragma: no cover - reduce of a scalar
            cluster.expr = build(src)
    else:
        cluster.n_ops += 1
        cluster.expr = (node._op,) + tuple(build(q) for q in node._parents)
    cluster.out_shape = node.shape
    cluster.out_dtype = np.dtype(node.dtype)
    return cluster


# --------------------------------------------------------------------- #
# NumPy interpreter
# --------------------------------------------------------------------- #

_NUMPY_OPS = {
    "add": np.add, "sub": np.subtract, "mul": np.multiply,
    "div": np.true_divide, "pow": np.power, "neg": np.negative,
    "exp": np.exp, "log": np.log, "sqrt": np.sqrt, "tanh": np.tanh,
    "abs": np.abs, "sign": np.sign, "floor": np.floor,
    "maximum": np.maximum, "minimum": np.minimum,
    "where": lambda c, a, b: np.where(c, a, b),
    "clip": lambda a, lo, hi: np.clip(a, lo, hi),
    "logaddexp": np.logaddexp,
}

# Ufuncs that accept ``out=`` — eligible for scratch-buffer reuse below.
_OUT_OPS = frozenset(_NUMPY_OPS) - {"where", "clip"}


def _interpret(cluster: _Cluster) -> np.ndarray:
    """Evaluate the expression tree with NumPy, reusing temporaries.

    ``ev`` returns ``(value, owned)`` where ``owned`` marks arrays this
    evaluation allocated (never leaves).  An op whose ufunc takes
    ``out=`` writes into an owned operand when shape and dtype already
    match exactly — a fused chain then streams through one or two
    scratch buffers instead of allocating per op, which is what lets it
    keep pace with (or beat) eager NumPy.
    """
    def ev(expr: tuple) -> tuple[Any, bool]:
        kind = expr[0]
        if kind == "in":
            return expr[1], False
        vals = []
        owned_flags = []
        for child in expr[1:]:
            v, o = ev(child)
            vals.append(v)
            owned_flags.append(o)
        fn = _NUMPY_OPS[kind]
        if kind in _OUT_OPS:
            shape = np.broadcast_shapes(*(np.shape(v) for v in vals))
            dtype = np.result_type(*vals)
            for v, o in zip(vals, owned_flags):
                if o and isinstance(v, np.ndarray) \
                        and v.shape == shape and v.dtype == dtype:
                    return fn(*vals, out=v), True
        return fn(*vals), True

    out, _ = ev(cluster.expr)
    if cluster.reduce:
        fn = {"sum": np.sum, "mean": np.mean,
              "max": np.max, "min": np.min}[cluster.reduce]
        # cluster.axis is always a concrete tuple (record time expands
        # axis=None to every dim), so pass it through verbatim: axis=()
        # is eagerly the identity, not a full reduction.
        out = fn(out, axis=cluster.axis, keepdims=cluster.keepdims)
    out = np.asarray(out)
    if out.dtype != cluster.out_dtype:
        out = out.astype(cluster.out_dtype)
    if out.shape != cluster.out_shape:
        out = np.broadcast_to(out, cluster.out_shape).copy()
    return out


def realize_node(node: LazyArray) -> np.ndarray:
    """Realize one pending node (and, transitively, what it needs)."""
    if node._buf is not None:
        return node._buf
    cluster = _extract(node)
    out = _interpret(cluster)
    with _STATS_LOCK:
        _stats["clusters"] += 1
        _stats["fused_ops"] += cluster.n_ops
    node._collapse(out)
    return out
