"""Pluggable array-backend layer.

This package is the acceleration seam of the reproduction: every
array-touching layer (``autograd``, ``nn``, ``fem``, ``multigrid``,
``distributed``) routes its hot-path math through the op-dispatch
registry instead of calling NumPy directly, so an alternative backend
(lazy/fused, GPU, ...) is one new module, not a codebase-wide rewrite.

Public surface::

    from repro.backend import ops as B          # op dispatcher
    from repro.backend import set_backend, get_backend, use_backend
    from repro.backend import set_default_dtype, dtype_scope
    from repro.backend import get_pool          # per-thread scratch arenas
    from repro.backend import plan_conv         # conv-engine geometry memo
"""

from .base import ArrayBackend, BackendOpError
from .numpy_backend import NumpyBackend
from .pool import BufferPool, PoolStats
from .dtype import get_default_dtype, set_default_dtype, dtype_scope
from .registry import (
    register_backend, available_backends, set_backend, get_backend,
    use_backend, ops,
)
from .lazy import (
    LazyArray, LazyBackend, is_lazy, lazy_stats, realize, realize_all,
    reset_lazy_stats,
)

register_backend("lazy", LazyBackend)
from .conv_plan import (
    ConvSignature, ConvPlan, plan_conv, clear_plan_cache, plan_cache_info,
)

__all__ = [
    "ArrayBackend", "BackendOpError", "NumpyBackend",
    "LazyBackend", "LazyArray", "realize", "realize_all", "is_lazy",
    "lazy_stats", "reset_lazy_stats",
    "BufferPool", "PoolStats", "get_pool",
    "get_default_dtype", "set_default_dtype", "dtype_scope",
    "register_backend", "available_backends", "set_backend", "get_backend",
    "use_backend", "ops",
    "ConvSignature", "ConvPlan", "plan_conv", "clear_plan_cache",
    "plan_cache_info", "reset_after_fork",
]


def get_pool() -> BufferPool:
    """The active backend's scratch-arena pool."""
    return get_backend().pool


def reset_after_fork(backend: str, dtype: str) -> None:
    """Re-initialise the array layer in a freshly forked process.

    Backend instances carry locks, pending-op registries and pooled
    buffers; after a fork lock state is undefined, so the child
    re-registers every built-in backend *fresh* before activating
    ``backend`` at ``dtype`` — a forked parent's memoized instance must
    never be reused.
    """
    register_backend("numpy", NumpyBackend())
    register_backend("lazy", LazyBackend)   # built on first use
    set_backend(backend)
    set_default_dtype(dtype)
