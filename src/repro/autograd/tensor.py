"""The :class:`Tensor` class: a NumPy array plus reverse-mode autodiff.

Operations record a DAG of data-free nodes (:class:`~.function.Node`);
``Tensor.backward`` performs a reverse topological traversal accumulating
gradients into ``.grad`` of every leaf with ``requires_grad=True``,
releasing each node as it goes.

Only the operations needed by the MGDiffNet reproduction are provided, but
each is fully general (arbitrary rank, broadcasting where meaningful).
"""

from __future__ import annotations

import time
from typing import Any

import numpy as np

from ..backend import ops as B
from ..backend import is_lazy, realize
from ..backend.dtype import get_default_dtype
from . import profiler
from .function import Node

__all__ = ["Tensor"]


class Tensor:
    """N-dimensional array with reverse-mode automatic differentiation."""

    __slots__ = ("data", "grad", "requires_grad", "_node")

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
        self._node: Node | None = None   # set by the op that made it

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

        # Nodes in topological order; a leaf's node is the leaf itself.
        root = self._node or self
        topo: list[Node | Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Node | Tensor, bool]] = [(root, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            if isinstance(node, Node):
                if node.ctx is None:
                    raise RuntimeError(
                        "backward through a graph that was released: a "
                        "graph runs backward once")
                stack.extend((p, False) for p in node.parents if p is not None)

        grads: dict[int, np.ndarray] = {id(root): grad}
        while topo:
            node = topo.pop()
            if isinstance(node, Tensor):
                # Leaf: accumulate.
                g = grads.pop(id(node), None)
                if g is not None:
                    node.grad = g.copy() if node.grad is None else node.grad + g
                continue
            # Only leaves keep a gradient, and a run node keeps nothing:
            # the walk holds O(the nodes not yet run), not O(graph).
            fn, ctx, parents = node.fn, node.ctx, node.parents
            node.ctx = node.parents = None
            if id(node) not in grads:
                continue
            profiles = profiler.running
            t0 = time.perf_counter() if profiles else 0.0
            # The backward alone holds its incoming gradient.
            parent_grads = fn.backward(ctx, grads.pop(id(node)))
            if profiles:
                profiler.record(profiles, "backward", fn.__name__,
                                time.perf_counter() - t0)
            if not isinstance(parent_grads, tuple):
                parent_grads = (parent_grads,)
            for p, pg in zip(parents, parent_grads):
                if p is None or pg is None:
                    continue
                if id(p) in grads:
                    grads[id(p)] = grads[id(p)] + pg
                else:
                    grads[id(p)] = pg
            parent_grads = pg = None    # a summed-away pg dies now

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
