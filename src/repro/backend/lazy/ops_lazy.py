"""The ``"lazy"`` backend: the op table that records instead of runs.

:class:`LazyBackend` subclasses :class:`~repro.backend.numpy_backend.
NumpyBackend` and overrides three op families:

* **elementwise / reduce ops** append pending :class:`~.graph.LazyArray`
  nodes — this is where fusion opportunity is captured;
* **forced ops** (contractions, shape ops, constructors) realize their
  inputs, run the NumPy implementation, and wrap floating results as
  lazy *sources* so the downstream elementwise chain keeps recording;
* **mutation ops** (``copyto``, ``scatter_add``) are barriers: they
  flush the thread's pending graph first so eager-observable semantics
  are preserved (see :mod:`.graph`).

Everything not overridden inherits the NumPy op verbatim; those ops
still accept :class:`LazyArray` inputs because ``np.asarray`` realizes
through ``__array__``.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from ..numpy_backend import NumpyBackend
from .graph import LazyArray, _realize_index, realize_all

__all__ = ["LazyBackend"]


class LazyBackend(NumpyBackend):
    """Records the op graph; fuses and executes on realization."""

    name = "lazy"


def _concrete(x: Any) -> Any:
    """Realize lazy values (recursing into op-argument containers)."""
    if isinstance(x, LazyArray):
        return x._realize()
    if isinstance(x, (list, tuple)):
        return type(x)(_concrete(e) for e in x)
    return x


def _wrap(out: Any) -> Any:
    """Wrap floating ndarray results as lazy sources so downstream
    elementwise chains record; everything else stays concrete."""
    if isinstance(out, np.ndarray) and out.dtype.kind == "f":
        return LazyArray.from_buffer(out)
    return out


def _forced(np_fn: Callable, wrap: bool = False) -> Callable:
    """An op executed eagerly on realized inputs."""
    def op(*args: Any, **kwargs: Any) -> Any:
        out = np_fn(*(_concrete(a) for a in args),
                    **{k: _concrete(v) for k, v in kwargs.items()})
        if wrap and "out" not in kwargs:
            return _wrap(out)
        return out
    op.__name__ = f"lazy_forced_{np_fn.__name__}"
    return op


def _ew(op: str, np_fn: Callable, arity: int) -> Callable:
    """An elementwise op recorded as a pending graph node.

    Exotic call forms (``out=`` kwargs, ``clip`` with ``None`` bounds,
    one-argument ``where``) fall back to eager execution.
    """
    def fn(*args: Any, **kwargs: Any) -> Any:
        if kwargs or len(args) != arity or any(a is None for a in args):
            return np_fn(*(_concrete(a) for a in args),
                         **{k: _concrete(v) for k, v in kwargs.items()})
        return LazyArray.elementwise(op, *args)
    fn.__name__ = f"lazy_{op}"
    return fn


def _red(op: str, np_fn: Callable) -> Callable:
    def fn(a: Any, axis: Any = None, keepdims: bool = False,
           **kwargs: Any) -> Any:
        if kwargs or not isinstance(a, (LazyArray, np.ndarray)):
            return np_fn(_concrete(a), axis=axis, keepdims=keepdims,
                         **{k: _concrete(v) for k, v in kwargs.items()})
        node = a if isinstance(a, LazyArray) else LazyArray.from_buffer(a)
        return node.reduce(op, axis=axis, keepdims=keepdims)
    fn.__name__ = f"lazy_{op}"
    return fn


def _asarray(a: Any, dtype: Any = None, **kwargs: Any) -> Any:
    if isinstance(a, LazyArray) and not kwargs:
        if dtype is None or np.dtype(dtype) == a.dtype:
            return a
        return LazyArray.from_buffer(a._realize().astype(dtype))
    return _wrap(np.asarray(_concrete(a), dtype=dtype, **kwargs))


def _like(alloc: Callable, fill: bool = False) -> Callable:
    """``*_like`` constructors read shape/dtype off the graph node
    without forcing a pending prototype."""
    if fill:
        def fn(a: Any, value: Any, dtype: Any = None, **kw: Any) -> Any:
            if isinstance(a, LazyArray) and not kw:
                return _wrap(alloc(a.shape, _concrete(value),
                                   dtype=dtype or a.dtype))
            return _wrap(np.full_like(_concrete(a), _concrete(value),
                                      dtype=dtype, **kw))
    else:
        np_like = {np.zeros: np.zeros_like, np.ones: np.ones_like,
                   np.empty: np.empty_like}[alloc]

        def fn(a: Any, dtype: Any = None, **kw: Any) -> Any:
            if isinstance(a, LazyArray) and not kw:
                return _wrap(alloc(a.shape, dtype=dtype or a.dtype))
            return _wrap(np_like(_concrete(a), dtype=dtype, **kw))
    return fn


def _copyto(dst: Any, src: Any, **kwargs: Any) -> None:
    # Mutation barrier: pending nodes must not observe the new contents.
    if isinstance(dst, LazyArray):
        np.copyto(dst._writable_buffer(), _concrete(src), **kwargs)
        return
    realize_all()
    np.copyto(dst, _concrete(src), **kwargs)


def _scatter_add(target: Any, idx: Any, values: Any) -> Any:
    if isinstance(target, LazyArray):
        buf = target._writable_buffer()   # flushes the pending graph
        np.add.at(buf, _realize_index(idx), _concrete(values))
        return target
    realize_all()
    np.add.at(target, _realize_index(idx), _concrete(values))
    return target


LazyBackend.register_ops({
    # Constructors / conversion: eager allocation, lazily wrapped.
    "asarray": _asarray,
    "ascontiguousarray": _forced(np.ascontiguousarray, wrap=True),
    "zeros": _forced(np.zeros, wrap=True),
    "ones": _forced(np.ones, wrap=True),
    "empty": _forced(np.empty, wrap=True),
    "full": _forced(np.full, wrap=True),
    "zeros_like": _like(np.zeros),
    "ones_like": _like(np.ones),
    "empty_like": _like(np.empty),
    "full_like": _like(np.full, fill=True),
    "arange": _forced(np.arange, wrap=True),
    "linspace": _forced(np.linspace, wrap=True),
    "copyto": _copyto,
    # Elementwise math: recorded, fused at realize.
    "exp": _ew("exp", np.exp, 1),
    "log": _ew("log", np.log, 1),
    "logaddexp": _ew("logaddexp", np.logaddexp, 2),
    "sqrt": _ew("sqrt", np.sqrt, 1),
    "tanh": _ew("tanh", np.tanh, 1),
    "sign": _ew("sign", np.sign, 1),
    "abs": _ew("abs", np.abs, 1),
    "floor": _ew("floor", np.floor, 1),
    "maximum": _ew("maximum", np.maximum, 2),
    "minimum": _ew("minimum", np.minimum, 2),
    "clip": _ew("clip", np.clip, 3),
    "where": _ew("where", np.where, 3),
    # Contractions: forced (outputs seed the next lazy chain).
    "matmul": _forced(np.matmul, wrap=True),
    "dot": _forced(np.dot, wrap=True),
    "tensordot": _forced(np.tensordot, wrap=True),
    "einsum": _forced(np.einsum, wrap=True),
    "outer": _forced(np.outer, wrap=True),
    "norm": _forced(np.linalg.norm, wrap=True),
    # Shape manipulation: forced.
    "pad": _forced(np.pad, wrap=True),
    "moveaxis": _forced(np.moveaxis, wrap=True),
    "swapaxes": _forced(np.swapaxes, wrap=True),
    "transpose": _forced(np.transpose, wrap=True),
    "expand_dims": _forced(np.expand_dims, wrap=True),
    "broadcast_to": _forced(np.broadcast_to, wrap=True),
    "concatenate": _forced(np.concatenate, wrap=True),
    "stack": _forced(np.stack, wrap=True),
    "split": _forced(np.split),
    "flip": _forced(np.flip, wrap=True),
    "take": _forced(np.take, wrap=True),
    # Conv planner / ctypes consumers need the raw strided view.
    "sliding_window_view": _forced(
        np.lib.stride_tricks.sliding_window_view),
    # Reductions / predicates.
    "sum": _red("sum", np.sum),
    "mean": _red("mean", np.mean),
    "max": _red("max", np.max),
    "min": _red("min", np.min),
    "var": _forced(np.var),
    "std": _forced(np.std),
    "cumsum": _forced(np.cumsum),
    "argsort": _forced(np.argsort),
    "allclose": _forced(np.allclose),
    "any": _forced(np.any),
    "all": _forced(np.all),
    # Indexed updates (mutation barrier).
    "scatter_add": _scatter_add,
})
