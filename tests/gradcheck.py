"""Numerical gradient checking for autograd functions.

Compares reverse-mode gradients against central finite differences in
float64.  Used throughout the test suite to certify every op.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.autograd import Tensor
from repro.backend import ops as B

__all__ = ["gradcheck", "numerical_gradient"]


def numerical_gradient(fn: Callable[..., Tensor], inputs: Sequence[Tensor],
                       index: int, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of ``sum(fn(*inputs))`` w.r.t. inputs[index]."""
    x = inputs[index]
    grad = np.zeros_like(x.data, dtype=np.float64)
    flat = x.data.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        plus = float(fn(*inputs).data.sum())
        flat[i] = orig - eps
        minus = float(fn(*inputs).data.sum())
        flat[i] = orig
        gflat[i] = (plus - minus) / (2.0 * eps)
    return grad


def gradcheck(fn: Callable[..., Tensor], inputs: Sequence[Tensor],
              eps: float = 1e-6, rtol: float = 1e-4, atol: float = 1e-6,
              raise_on_fail: bool = True) -> bool:
    """Verify analytic gradients of ``fn`` against finite differences.

    All inputs must be float64 tensors with ``requires_grad=True`` where a
    gradient is expected.  Returns True on success.
    """
    for t in inputs:
        if t.dtype != np.float64:
            raise ValueError("gradcheck requires float64 inputs")
        t.zero_grad()

    out = fn(*inputs)
    out.sum().backward() if out.data.size > 1 else out.backward()

    ok = True
    for i, t in enumerate(inputs):
        if not t.requires_grad:
            continue
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        numeric = numerical_gradient(fn, inputs, i, eps=eps)
        if not B.allclose(analytic, numeric, rtol=rtol, atol=atol):
            ok = False
            if raise_on_fail:
                err = B.abs(analytic - numeric).max()
                raise AssertionError(
                    f"gradcheck failed for input {i}: max abs err {err:.3e}\n"
                    f"analytic[:5]={np.asarray(analytic).reshape(-1)[:5]}\n"
                    f"numeric [:5]={numeric.reshape(-1)[:5]}")
    return ok
