"""Gradcheck every basic op, including broadcasting paths."""

import numpy as np
import pytest

from tests.conftest import t64
from tests.gradcheck import gradcheck


@pytest.fixture
def rng():
    return np.random.default_rng(7)


class TestArithmetic:
    def test_add_same_shape(self, rng):
        a, b = t64((3, 4), rng), t64((3, 4), rng)
        gradcheck(lambda a, b: a + b, [a, b])

    def test_add_broadcast_row(self, rng):
        a, b = t64((3, 4), rng), t64((1, 4), rng)
        gradcheck(lambda a, b: a + b, [a, b])

    def test_add_broadcast_scalar_shape(self, rng):
        a, b = t64((2, 3), rng), t64((1,), rng)
        gradcheck(lambda a, b: a + b, [a, b])

    def test_sub(self, rng):
        a, b = t64((2, 5), rng), t64((2, 5), rng)
        gradcheck(lambda a, b: a - b, [a, b])

    def test_mul_broadcast(self, rng):
        a, b = t64((4, 3), rng), t64((3,), rng)
        gradcheck(lambda a, b: a * b, [a, b])
