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
    from repro.backend import get_pool          # pooled scratch buffers
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
    "plan_cache_info",
]


def get_pool() -> BufferPool:
    """The active backend's pooled buffer allocator."""
    return get_backend().pool
