"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd import Tensor


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def t64(array_or_shape, rng: np.random.Generator | None = None,
        requires_grad: bool = True) -> Tensor:
    """Build a float64 tensor for gradcheck-grade tests."""
    if isinstance(array_or_shape, tuple):
        assert rng is not None
        data = rng.standard_normal(array_or_shape)
    else:
        data = np.asarray(array_or_shape, dtype=np.float64)
    return Tensor(data, requires_grad=requires_grad, dtype=np.float64)


@pytest.fixture
def force_conv_path(monkeypatch):
    """``force_conv_path("im2col" | "tensordot")`` routes every conv
    through one engine by substituting the planner's decision — the
    parity tests' way to drive both engines over identical inputs (there
    is no production switch).  The plan cache is cleared around it."""
    from repro.backend import conv_plan

    def force(path: str) -> None:
        assert path in ("im2col", "tensordot"), path
        conv_plan.clear_plan_cache()
        monkeypatch.setattr(
            conv_plan, "_decide", lambda sig: (path, f"forced {path!r} by test"))

    conv_plan.clear_plan_cache()
    yield force
    conv_plan.clear_plan_cache()
