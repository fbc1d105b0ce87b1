"""The :class:`Tensor` class: a NumPy array plus reverse-mode autodiff.

Tensors form a DAG as operations are applied; ``Tensor.backward`` performs a
reverse topological traversal accumulating gradients into ``.grad`` of every
leaf with ``requires_grad=True``.

Only the operations needed by the MGDiffNet reproduction are provided, but
each is fully general (arbitrary rank, broadcasting where meaningful).
"""

from __future__ import annotations

import time
from typing import Any, Iterable, Sequence

import numpy as np

from ..backend import ops as B
from ..backend import is_lazy, realize
from ..backend.dtype import get_default_dtype, set_default_dtype
from . import profiler
from .function import Context, Function, is_grad_enabled

__all__ = ["Tensor", "set_default_dtype", "get_default_dtype"]


class Tensor:
    """N-dimensional array with reverse-mode automatic differentiation."""

    __slots__ = ("data", "grad", "requires_grad", "_ctx", "_fn", "_parents")

    def __init__(self, data: Any, requires_grad: bool = False, dtype: Any = None) -> None:
        if isinstance(data, Tensor):
            data = data.data
        if isinstance(data, (np.ndarray, np.generic)) or is_lazy(data):
            data = B.asarray(data)
            if dtype is not None and data.dtype != np.dtype(dtype):
                data = data.astype(dtype)
        else:
            data = B.asarray(data, dtype=dtype or get_default_dtype())
        if not np.issubdtype(data.dtype, np.floating):
            data = data.astype(get_default_dtype())
        self.data: np.ndarray = data
        self.grad: np.ndarray | None = None
        self.requires_grad: bool = bool(requires_grad)
        self._ctx: Context | None = None
        self._fn: type[Function] | None = None
        self._parents: tuple = ()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy; realizes lazy graphs)."""
        return realize(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype}{flag})"

    # ------------------------------------------------------------------ #
    # Backward
    # ------------------------------------------------------------------ #
    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor through the recorded graph."""
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be supplied for non-scalar outputs")
            grad = B.ones_like(self.data)
        grad = B.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.shape:
            raise ValueError(
                f"grad shape {grad.shape} != tensor shape {self.shape}")

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p is not None and p.requires_grad:
                    stack.append((p, False))

        grads: dict[int, np.ndarray] = {id(self): grad}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node._fn is None:
                # Leaf: accumulate.
                if node.grad is None:
                    node.grad = g.copy()
                else:
                    node.grad = node.grad + g
                continue
            profiles = profiler.running
            t0 = time.perf_counter() if profiles else 0.0
            parent_grads = node._fn.backward(node._ctx, g)
            if profiles:
                profiler.record(profiles, "backward", node._fn.__name__,
                                time.perf_counter() - t0)
            if not isinstance(parent_grads, tuple):
                parent_grads = (parent_grads,)
            for p, pg in zip(node._parents, parent_grads):
                if p is None or pg is None or not p.requires_grad:
                    continue
                if id(p) in grads:
                    grads[id(p)] = grads[id(p)] + pg
                else:
                    grads[id(p)] = pg
            # Interior-node gradients are deliberately not retained: only
            # leaves accumulate into ``.grad`` (see the leaf branch above),
            # which keeps memory at O(parameters) instead of O(graph).
            # Use ``.detach()``-free leaf tensors to inspect interior grads.

    # ------------------------------------------------------------------ #
    # Arithmetic (operator protocol) — implementations in ops_basic
    # ------------------------------------------------------------------ #
    def _binary(self, other: Any, fn_name: str, swap: bool = False):
        from . import ops_basic as ob

        other_t = other if isinstance(other, Tensor) else Tensor(
            B.asarray(other, dtype=self.dtype))
        fn = getattr(ob, fn_name)
        return fn(other_t, self) if swap else fn(self, other_t)

    def __add__(self, other: Any) -> "Tensor":
        return self._binary(other, "add")

    def __radd__(self, other: Any) -> "Tensor":
        return self._binary(other, "add", swap=True)

    def __sub__(self, other: Any) -> "Tensor":
        return self._binary(other, "sub")

    def __rsub__(self, other: Any) -> "Tensor":
        return self._binary(other, "sub", swap=True)

    def __mul__(self, other: Any) -> "Tensor":
        return self._binary(other, "mul")

    def __rmul__(self, other: Any) -> "Tensor":
        return self._binary(other, "mul", swap=True)

    # ------------------------------------------------------------------ #
    # Common method forms
    # ------------------------------------------------------------------ #
    def sum(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        from . import ops_reduce as ord

        return ord.sum_(self, axis=axis, keepdims=keepdims)

    def mean(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        from . import ops_reduce as ord

        return ord.mean(self, axis=axis, keepdims=keepdims)
