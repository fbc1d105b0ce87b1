"""The gradient checker itself must catch wrong gradients."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.autograd.function import Context, Function

from tests.gradcheck import gradcheck


class _WrongGrad(Function):
    @staticmethod
    def forward(ctx: Context, a: np.ndarray) -> np.ndarray:
        ctx.save_for_backward(a)
        return a * a

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        (a,) = ctx.saved
        return (grad * a,)  # wrong: should be 2 * a * grad


def test_gradcheck_catches_wrong_gradient():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True, dtype=np.float64)
    with pytest.raises(AssertionError):
        gradcheck(lambda x: _WrongGrad.apply(x), [x])


def test_gradcheck_returns_false_without_raise():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True, dtype=np.float64)
    assert not gradcheck(lambda x: _WrongGrad.apply(x), [x],
                         raise_on_fail=False)


def test_gradcheck_requires_float64():
    x = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
    with pytest.raises(ValueError):
        gradcheck(lambda x: x * 2.0, [x])


def test_gradcheck_passes_correct_gradient():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True, dtype=np.float64)
    assert gradcheck(lambda x: (x * x).sum(), [x])
