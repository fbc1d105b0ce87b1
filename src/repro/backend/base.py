"""The :class:`ArrayBackend` abstraction and its op-dispatch registry.

A backend is a named bundle of array operations ("ops") plus a pooled
buffer allocator.  Ops are plain callables registered per backend class in
an op table; callers never touch the table directly — they go through the
module-level :data:`repro.backend.ops` dispatcher, which resolves each op
name against the *active* backend at call time:

    from repro.backend import ops as B
    y = B.tensordot(a, b, axes=([1], [1]))

The contract for backend arrays is the NumPy array API subset this repo
uses: arrays expose ``.shape``/``.dtype``/``.reshape``/``.astype``,
support arithmetic operators and the reduction *methods* (``.sum``,
``.mean``, ...).  Free functions that NumPy exposes at module level
(``tensordot``, ``pad``, ``where``, ...) are the dispatch seam: those must
be called through the registry so an alternative backend (lazy, GPU)
can substitute its own implementations one op at a time.

Subclasses inherit their parent's op table and may override individual
entries::

    class LazyBackend(NumpyBackend):
        name = "lazy"

    @LazyBackend.register_op("tensordot")
    def _lazy_tensordot(a, b, axes): ...
"""

from __future__ import annotations

from typing import Any, Callable

from .pool import BufferPool

__all__ = ["ArrayBackend", "BackendOpError"]


class BackendOpError(NotImplementedError):
    """Raised when the active backend does not implement a requested op."""


class ArrayBackend:
    """Base class for array backends.

    Each subclass owns an op table (``_ops``) mapping op names to
    callables.  Tables are inherited copy-on-write: registering an op on a
    subclass never mutates the parent's table.
    """

    name: str = "abstract"
    _ops: dict[str, Callable[..., Any]] = {}

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        # Copy-inherit the parent table so subclass registrations are local.
        merged: dict[str, Callable[..., Any]] = {}
        for base in reversed(cls.__mro__):
            merged.update(vars(base).get("_ops", {}))
        cls._ops = merged

    def __init__(self, pool: BufferPool | None = None) -> None:
        self.pool = pool if pool is not None else BufferPool()

    # ------------------------------------------------------------------ #
    # Op registry
    # ------------------------------------------------------------------ #
    @classmethod
    def register_op(cls, name: str, fn: Callable[..., Any] | None = None):
        """Register ``fn`` under ``name``; usable as a decorator."""
        if fn is not None:
            cls._ops[name] = fn
            return fn

        def decorator(f: Callable[..., Any]) -> Callable[..., Any]:
            cls._ops[name] = f
            return f

        return decorator

    @classmethod
    def register_ops(cls, mapping: dict[str, Callable[..., Any]]) -> None:
        """Bulk-register a name -> callable mapping."""
        cls._ops.update(mapping)

    def has_op(self, name: str) -> bool:
        return name in self._ops

    def op(self, name: str) -> Callable[..., Any]:
        """Resolve an op by name; raise :class:`BackendOpError` if absent."""
        try:
            return self._ops[name]
        except KeyError:
            raise BackendOpError(
                f"backend {self.name!r} does not implement op {name!r}; "
                f"register it with {type(self).__name__}.register_op") from None

    def op_names(self) -> tuple[str, ...]:
        return tuple(sorted(self._ops))

    def __getattr__(self, name: str) -> Callable[..., Any]:
        # Fallback attribute access resolves registered ops, so
        # ``backend.tensordot(...)`` works alongside ``backend.op(...)``.
        if name.startswith("_"):
            raise AttributeError(name)
        ops = type(self)._ops
        if name in ops:
            return ops[name]
        raise AttributeError(
            f"{type(self).__name__!r} has no attribute or registered op {name!r}")

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r}, ops={len(self._ops)})"
