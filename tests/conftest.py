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
