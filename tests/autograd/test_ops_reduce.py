"""Reduction op tests."""

import numpy as np
import pytest

from repro.autograd import Tensor

from tests.conftest import t64
from tests.gradcheck import gradcheck


@pytest.fixture
def rng():
    return np.random.default_rng(11)


class TestSum:
    def test_all(self, rng):
        a = t64((3, 4), rng)
        gradcheck(lambda a: a.sum(), [a])

    def test_axis(self, rng):
        a = t64((3, 4, 5), rng)
        gradcheck(lambda a: a.sum(axis=1), [a])
        gradcheck(lambda a: a.sum(axis=(0, 2)), [a])

    def test_keepdims(self, rng):
        a = t64((3, 4), rng)
        out = a.sum(axis=0, keepdims=True)
        assert out.shape == (1, 4)
        gradcheck(lambda a: a.sum(axis=0, keepdims=True), [a])

    def test_negative_axis(self, rng):
        a = t64((3, 4), rng)
        np.testing.assert_allclose(a.sum(axis=-1).data, a.data.sum(axis=-1))


class TestMean:
    def test_all(self, rng):
        a = t64((4, 4), rng)
        gradcheck(lambda a: a.mean(), [a])

    def test_axis_keepdims(self, rng):
        a = t64((2, 3, 4), rng)
        gradcheck(lambda a: a.mean(axis=(1, 2), keepdims=True), [a])

    def test_value(self):
        a = Tensor(np.arange(6, dtype=np.float64).reshape(2, 3))
        assert float(a.mean().data) == pytest.approx(2.5)
