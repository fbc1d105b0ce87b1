"""The lazy op graph: :class:`LazyArray` nodes and recording machinery.

A :class:`LazyArray` is either a *source* (wrapping a concrete NumPy
buffer) or a *pending* node (an op name plus parent references).  Ops
dispatched through the lazy backend append pending nodes instead of
executing; :func:`realize` (called explicitly, or implicitly by
``__array__``/``float()``/item access/any boundary crossing into NumPy,
SciPy, serve or FEM code) hands the graph to the scheduler, which fuses
elementwise/reduce chains into single kernels before executing.

Semantics contract: a realized lazy computation must match the eager
NumPy backend to float tolerance (asserted by the equivalence suite).
Two rules keep mutation semantics eager-equivalent:

* **In-place mutation is a barrier.** ``x[idx] = v``, ``scatter_add``,
  ``copyto`` and ``fill`` first realize every pending node recorded by
  the calling thread, so no pending consumer can observe post-mutation
  values it would not have seen eagerly.
* **Aliasing is preserved.** Sources wrap buffers without copying, and
  ``__getitem__`` wraps NumPy views, so view/mutation aliasing behaves
  exactly as it does eagerly.

The per-thread registry of pending nodes holds weak references only:
dropping the last strong reference to an unrealized node simply discards
the computation, exactly like dropping an unread eager temporary.

**Threading constraint (hard).** The pending registry — and therefore
the mutation barrier — is per-thread.  A buffer mutated on thread A
while thread B still holds un-realized nodes reading that buffer is NOT
flushed by A's barrier, and B's later realization would observe
post-mutation values.  Do not share a buffer across threads while any
thread holds pending consumers of it: ``realize()``/``realize_all()``
on the recording thread before handing a value to another thread.  The
repo's own hot paths obey this — serve workers realize at the forward
boundary and never exchange pending nodes.
"""

from __future__ import annotations

import threading
import weakref
from typing import Any, Iterable

import numpy as np

__all__ = [
    "LazyArray", "realize", "realize_all", "is_lazy",
    "ELEMENTWISE_OPS", "REDUCE_OPS",
]

# Ops recorded as pending elementwise nodes.  Arity is implied by the
# parent tuple; "where" is ternary, "clip" takes (x, lo, hi).
ELEMENTWISE_OPS = frozenset({
    "add", "sub", "mul", "div", "pow", "neg",
    "exp", "log", "sqrt", "tanh", "abs", "sign", "floor",
    "maximum", "minimum", "where", "clip", "logaddexp",
})

# Ops recorded as pending reduction nodes (extra: axis, keepdims).
REDUCE_OPS = frozenset({"sum", "mean", "max", "min"})


class _PendingRegistry(threading.local):
    """Per-thread weak set of pending nodes (for barrier flushes)."""

    def __init__(self) -> None:
        self.refs: list[weakref.ref] = []


_pending = _PendingRegistry()


def _register_pending(node: "LazyArray") -> None:
    refs = _pending.refs
    refs.append(weakref.ref(node))
    if len(refs) > 256:
        _pending.refs = [r for r in refs if r() is not None]


def realize_all() -> None:
    """Realize every pending node recorded by this thread (a barrier).

    Per-thread only: pending nodes recorded by *other* threads are not
    flushed.  See the module docstring's threading constraint — buffers
    must not be shared across threads while un-realized consumers exist.
    """
    refs, _pending.refs = _pending.refs, []
    for ref in refs:
        node = ref()
        if node is not None and node._buf is None:
            node._realize()


def is_lazy(x: Any) -> bool:
    return isinstance(x, LazyArray)


def realize(x: Any) -> Any:
    """Force a value to a concrete NumPy array (no-op for non-lazy)."""
    if isinstance(x, LazyArray):
        return x._realize()
    return x


def _result_dtype(parents: Iterable[Any]) -> np.dtype:
    args = [p.dtype if isinstance(p, LazyArray) else p for p in parents]
    return np.dtype(np.result_type(*args))


def _result_shape(parents: Iterable[Any]) -> tuple[int, ...]:
    shapes = [p.shape for p in parents if isinstance(p, LazyArray)]
    if not shapes:
        return ()
    return tuple(int(s) for s in np.broadcast_shapes(*shapes))


# Ufuncs NumPy may invoke on mixed ndarray/LazyArray expressions that we
# record instead of executing (populated after the class definition).
_UFUNC_OPS: dict[Any, str] = {}


class LazyArray:
    """A node of the lazy op graph presenting the NumPy-array subset the
    repo's hot paths use (operators, reduce methods, shape metadata)."""

    __slots__ = ("shape", "dtype", "_buf", "_op", "_parents", "_extra",
                 "_consumers", "__weakref__")

    # NumPy defers ufunc calls involving a LazyArray to this hook, so
    # mixed ndarray/LazyArray expressions record instead of erroring.
    __array_priority__ = 1000.0

    def __array_ufunc__(self, ufunc: Any, method: str, *inputs: Any,
                        **kwargs: Any) -> Any:
        op = _UFUNC_OPS.get(ufunc)
        if op is not None and method == "__call__" and not kwargs:
            return LazyArray.elementwise(op, *inputs)
        # Exotic calls (out=, reduce/accumulate, unmapped ufuncs) run
        # eagerly; an out= target is an in-place mutation, hence a
        # barrier (see module docstring).
        out = kwargs.get("out")
        if out is not None:
            realize_all()
            kwargs["out"] = tuple(
                o._writable_buffer() if isinstance(o, LazyArray) else o
                for o in out)
        inputs = tuple(realize(i) for i in inputs)
        return getattr(ufunc, method)(*inputs, **kwargs)

    def __init__(self, *, buf: np.ndarray | None = None,
                 op: str | None = None, parents: tuple = (),
                 shape: tuple[int, ...] | None = None,
                 dtype: Any = None, extra: dict | None = None) -> None:
        self._buf = buf
        self._op = op
        self._parents = parents
        self._extra = extra or {}
        self._consumers = 0
        if buf is not None:
            self.shape = buf.shape
            self.dtype = buf.dtype
        else:
            self.shape = shape
            self.dtype = np.dtype(dtype)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @staticmethod
    def from_buffer(buf: np.ndarray) -> "LazyArray":
        """Wrap a concrete array (no copy; aliasing preserved)."""
        return LazyArray(buf=np.asarray(buf))

    @staticmethod
    def record(op: str, parents: tuple, shape: tuple[int, ...],
               dtype: Any, **extra: Any) -> "LazyArray":
        """Append a pending node to the calling thread's graph."""
        node = LazyArray(op=op, parents=parents, shape=shape, dtype=dtype,
                         extra=extra)
        for p in parents:
            if isinstance(p, LazyArray):
                p._consumers += 1
        _register_pending(node)
        return node

    @staticmethod
    def elementwise(op: str, *operands: Any) -> "LazyArray":
        parents = tuple(_as_operand(o) for o in operands)
        dtype = _result_dtype(parents)
        if op == "div" and not np.issubdtype(dtype, np.floating):
            dtype = np.dtype(np.float64)     # true division promotes
        return LazyArray.record(op, parents, _result_shape(parents), dtype)

    def reduce(self, op: str, axis: Any = None,
               keepdims: bool = False) -> "LazyArray":
        if axis is None:
            axes: tuple[int, ...] = tuple(range(self.ndim))
        elif isinstance(axis, (int, np.integer)):
            axes = (int(axis) % max(self.ndim, 1),)
        else:
            axes = tuple(int(a) % self.ndim for a in axis)
        if keepdims:
            shape = tuple(1 if i in axes else s
                          for i, s in enumerate(self.shape))
        else:
            shape = tuple(s for i, s in enumerate(self.shape)
                          if i not in axes)
        dtype = self.dtype
        if op == "sum":
            # Eager np.sum promotes bool/small-int inputs to the platform
            # default int accumulator; recording the input dtype instead
            # would silently overflow on downcast. Ask NumPy directly.
            dtype = np.empty(0, dtype=self.dtype).sum().dtype
        elif op == "mean" and not np.issubdtype(self.dtype, np.floating):
            dtype = np.dtype(np.float64)
        return LazyArray.record(op, (self,), shape, dtype,
                                axis=axes, keepdims=bool(keepdims))

    # ------------------------------------------------------------------ #
    # Realization
    # ------------------------------------------------------------------ #
    def _realize(self) -> np.ndarray:
        if self._buf is None:
            from .schedule import realize_node

            realize_node(self)
        return self._buf

    def _collapse(self, buf: np.ndarray) -> None:
        """Become a source wrapping ``buf`` (called by the scheduler)."""
        self._buf = buf
        self._op = None
        self._parents = ()
        self._extra = {}

    def _writable_buffer(self) -> np.ndarray:
        """Realize for in-place mutation: flush the thread's pending
        graph first so eager observers cannot be bypassed."""
        realize_all()
        buf = self._realize()
        if not buf.flags.writeable:
            buf = buf.copy()
            self._collapse(buf)
        return buf

    def numpy(self) -> np.ndarray:
        """Concrete NumPy array for this node (realizes)."""
        return self._realize()

    def __array__(self, dtype: Any = None, copy: bool | None = None
                  ) -> np.ndarray:
        buf = self._realize()
        if dtype is not None:
            return buf.astype(dtype)
        return buf.copy() if copy else buf

    # ------------------------------------------------------------------ #
    # Shape metadata (no realization)
    # ------------------------------------------------------------------ #
    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def size(self) -> int:
        n = 1
        for s in self.shape:
            n *= s
        return n

    @property
    def nbytes(self) -> int:
        return self.size * self.dtype.itemsize

    @property
    def itemsize(self) -> int:
        return self.dtype.itemsize

    @property
    def T(self) -> "LazyArray":
        return LazyArray.from_buffer(self._realize().T)

    @property
    def flags(self):
        return self._realize().flags

    def __len__(self) -> int:
        if not self.shape:
            raise TypeError("len() of unsized object")
        return self.shape[0]

    def __repr__(self) -> str:
        state = "source" if self._buf is not None else f"pending:{self._op}"
        return (f"LazyArray(shape={self.shape}, dtype={self.dtype}, "
                f"{state})")

    # ------------------------------------------------------------------ #
    # Conversions / methods used by the hot paths
    # ------------------------------------------------------------------ #
    def astype(self, dtype: Any, **kwargs: Any) -> "LazyArray":
        return LazyArray.from_buffer(self._realize().astype(dtype, **kwargs))

    def copy(self) -> "LazyArray":
        return LazyArray.from_buffer(self._realize().copy())

    def reshape(self, *shape: Any) -> "LazyArray":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return LazyArray.from_buffer(self._realize().reshape(shape))

    def ravel(self) -> "LazyArray":
        return LazyArray.from_buffer(self._realize().ravel())

    def flatten(self) -> "LazyArray":
        return LazyArray.from_buffer(self._realize().flatten())

    def transpose(self, *axes: Any) -> "LazyArray":
        if len(axes) == 1 and (axes[0] is None
                               or isinstance(axes[0], (tuple, list))):
            axes = tuple(axes[0]) if axes[0] is not None else ()
        return LazyArray.from_buffer(
            self._realize().transpose(axes if axes else None))

    def squeeze(self, axis: Any = None) -> "LazyArray":
        return LazyArray.from_buffer(self._realize().squeeze(axis))

    def tolist(self) -> list:
        return self._realize().tolist()

    def fill(self, value: float) -> None:
        self._writable_buffer().fill(value)

    def item(self) -> float:
        return self._realize().item()

    def __float__(self) -> float:
        return float(self._realize())

    def __int__(self) -> int:
        return int(self._realize())

    def __bool__(self) -> bool:
        return bool(self._realize())

    # ------------------------------------------------------------------ #
    # Reductions (method form mirrors ndarray)
    # ------------------------------------------------------------------ #
    def sum(self, axis: Any = None, keepdims: bool = False, **kw: Any):
        if kw:
            return self._realize().sum(axis=axis, keepdims=keepdims, **kw)
        return self.reduce("sum", axis=axis, keepdims=keepdims)

    def mean(self, axis: Any = None, keepdims: bool = False, **kw: Any):
        if kw:
            return self._realize().mean(axis=axis, keepdims=keepdims, **kw)
        return self.reduce("mean", axis=axis, keepdims=keepdims)

    def max(self, axis: Any = None, keepdims: bool = False):
        return self.reduce("max", axis=axis, keepdims=keepdims)

    def min(self, axis: Any = None, keepdims: bool = False):
        return self.reduce("min", axis=axis, keepdims=keepdims)

    def var(self, *args: Any, **kwargs: Any):
        return self._realize().var(*args, **kwargs)

    def std(self, *args: Any, **kwargs: Any):
        return self._realize().std(*args, **kwargs)

    def argmax(self, *args: Any, **kwargs: Any):
        return self._realize().argmax(*args, **kwargs)

    # ------------------------------------------------------------------ #
    # Arithmetic operators (recorded lazily)
    # ------------------------------------------------------------------ #
    def __add__(self, other: Any):
        return LazyArray.elementwise("add", self, other)

    def __radd__(self, other: Any):
        return LazyArray.elementwise("add", other, self)

    def __sub__(self, other: Any):
        return LazyArray.elementwise("sub", self, other)

    def __rsub__(self, other: Any):
        return LazyArray.elementwise("sub", other, self)

    def __mul__(self, other: Any):
        return LazyArray.elementwise("mul", self, other)

    def __rmul__(self, other: Any):
        return LazyArray.elementwise("mul", other, self)

    def __truediv__(self, other: Any):
        return LazyArray.elementwise("div", self, other)

    def __rtruediv__(self, other: Any):
        return LazyArray.elementwise("div", other, self)

    def __pow__(self, other: Any):
        return LazyArray.elementwise("pow", self, other)

    def __rpow__(self, other: Any):
        return LazyArray.elementwise("pow", other, self)

    def __neg__(self):
        return LazyArray.elementwise("neg", self)

    def __matmul__(self, other: Any):
        return np.matmul(self._realize(), realize(_unwrap(other)))

    def __rmatmul__(self, other: Any):
        return np.matmul(realize(_unwrap(other)), self._realize())

    def __mod__(self, other: Any):
        return self._realize() % realize(_unwrap(other))

    # ------------------------------------------------------------------ #
    # Comparisons and boolean algebra (eager: masks are control flow and
    # indexing inputs, not hot elementwise math)
    # ------------------------------------------------------------------ #
    def _cmp(self, other: Any, op: str) -> Any:
        a = self._realize()
        b = realize(_unwrap(other))
        return getattr(a, op)(b)

    def __eq__(self, other: Any):  # type: ignore[override]
        return self._cmp(other, "__eq__")

    def __ne__(self, other: Any):  # type: ignore[override]
        return self._cmp(other, "__ne__")

    def __lt__(self, other: Any):
        return self._cmp(other, "__lt__")

    def __le__(self, other: Any):
        return self._cmp(other, "__le__")

    def __gt__(self, other: Any):
        return self._cmp(other, "__gt__")

    def __ge__(self, other: Any):
        return self._cmp(other, "__ge__")

    def __and__(self, other: Any):
        return self._cmp(other, "__and__")

    def __or__(self, other: Any):
        return self._cmp(other, "__or__")

    def __xor__(self, other: Any):
        return self._cmp(other, "__xor__")

    def __invert__(self):
        return ~self._realize()

    __hash__ = object.__hash__

    # ------------------------------------------------------------------ #
    # Indexing.  Reads wrap NumPy views (aliasing preserved); writes are
    # barriers (see module docstring).
    # ------------------------------------------------------------------ #
    def __getitem__(self, idx: Any) -> Any:
        out = self._realize()[_realize_index(idx)]
        if isinstance(out, np.ndarray):
            return LazyArray.from_buffer(out)
        return out

    def __setitem__(self, idx: Any, value: Any) -> None:
        buf = self._writable_buffer()
        buf[_realize_index(idx)] = realize(_unwrap(value))


def _unwrap(x: Any) -> Any:
    return x


def _realize_index(idx: Any) -> Any:
    """Realize any lazy arrays used inside an index expression."""
    if isinstance(idx, LazyArray):
        return idx._realize()
    if isinstance(idx, tuple):
        return tuple(realize(i) for i in idx)
    return idx


_UFUNC_OPS.update({
    np.add: "add", np.subtract: "sub", np.multiply: "mul",
    np.true_divide: "div", np.power: "pow", np.negative: "neg",
    np.exp: "exp", np.log: "log", np.sqrt: "sqrt", np.tanh: "tanh",
    np.absolute: "abs", np.sign: "sign", np.floor: "floor",
    np.maximum: "maximum", np.minimum: "minimum",
    np.logaddexp: "logaddexp",
})


def _as_operand(x: Any) -> Any:
    """Normalize an elementwise operand: LazyArray, source wrap, or a
    Python scalar constant."""
    if isinstance(x, LazyArray):
        return x
    if isinstance(x, np.ndarray):
        return LazyArray.from_buffer(x)
    if isinstance(x, (bool, int, float, np.generic)):
        return x
    return LazyArray.from_buffer(np.asarray(x))
