"""Autograd Function machinery.

Every differentiable operation is a subclass of :class:`Function` with a
static ``forward`` that computes a raw :class:`numpy.ndarray` result and a
static ``backward`` that maps the incoming gradient to gradients for each
positional input.  ``Function.apply`` wires the op into the autodiff graph.

The design mirrors the classic tape-based reverse-mode pattern: the graph is
built eagerly during the forward pass and traversed in reverse topological
order by :meth:`repro.autograd.tensor.Tensor.backward`.
"""

from __future__ import annotations

import threading
from typing import Any

import numpy as np

__all__ = ["Context", "Function", "no_grad", "is_grad_enabled"]


class _GradMode(threading.local):
    """Thread-local flag controlling whether the graph is recorded."""

    def __init__(self) -> None:
        self.enabled = True


_grad_mode = _GradMode()


def is_grad_enabled() -> bool:
    """Return True when operations record the autodiff graph."""
    return _grad_mode.enabled


class no_grad:
    """Context manager disabling graph construction (inference mode)."""

    def __enter__(self) -> "no_grad":
        self._prev = _grad_mode.enabled
        _grad_mode.enabled = False
        return self

    def __exit__(self, *exc: Any) -> None:
        _grad_mode.enabled = self._prev


class Context:
    """Scratch space a Function uses to stash values for backward.

    ``needs_input_grad`` holds one flag per positional argument of
    ``forward``: whether anything upstream will read that argument's
    gradient.  ``backward`` may return ``None`` in place of a gradient
    whose flag is false, and ``forward`` may skip what only it needs.
    """

    __slots__ = ("saved", "meta", "needs_input_grad")

    def __init__(self, needs_input_grad: tuple[bool, ...] = ()) -> None:
        self.saved: tuple = ()
        self.meta: dict[str, Any] = {}
        self.needs_input_grad = needs_input_grad

    def save_for_backward(self, *arrays: Any) -> None:
        self.saved = arrays


class Function:
    """Base class for differentiable operations.

    Subclasses implement::

        @staticmethod
        def forward(ctx, *args, **kwargs) -> np.ndarray: ...

        @staticmethod
        def backward(ctx, grad: np.ndarray) -> tuple: ...

    ``backward`` must return one gradient (or ``None``) per positional
    argument of ``forward``, in order.  Non-tensor positional arguments
    receive ``None``.
    """

    @staticmethod
    def forward(ctx: Context, *args: Any, **kwargs: Any) -> np.ndarray:
        raise NotImplementedError

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray) -> Any:
        raise NotImplementedError

    @classmethod
    def apply(cls, *args: Any, **kwargs: Any):
        from .tensor import Tensor

        ctx = Context(
            tuple(isinstance(a, Tensor) and a.requires_grad for a in args)
            if is_grad_enabled() else (False,) * len(args))
        raw_args = tuple(a.data if isinstance(a, Tensor) else a for a in args)
        out_data = cls.forward(ctx, *raw_args, **kwargs)

        requires = any(ctx.needs_input_grad)
        out = Tensor(out_data, requires_grad=requires)
        if requires:
            out._ctx = ctx
            out._fn = cls
            out._parents = tuple(a if isinstance(a, Tensor) else None for a in args)
        return out


def unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` after NumPy broadcasting.

    Sums over prepended axes and over axes that were broadcast from 1.
    """
    if grad.shape == shape:
        return grad
    # Sum away leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes where original dim was 1 but grad dim > 1.
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)
