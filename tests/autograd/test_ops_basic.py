"""Gradcheck every basic op, including broadcasting paths."""

import numpy as np
import pytest

from repro.autograd import (Tensor, gradcheck, concat, pad, flip, zero_stuff,
                            moveaxis)

from tests.conftest import t64


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

    def test_neg(self, rng):
        a = t64((5,), rng)
        gradcheck(lambda a: -a, [a])


class TestShapes:
    def test_reshape(self, rng):
        a = t64((2, 6), rng)
        gradcheck(lambda a: a.reshape(3, 4), [a])

    def test_reshape_tuple_arg(self, rng):
        a = t64((2, 6), rng)
        assert a.reshape((4, 3)).shape == (4, 3)

    def test_moveaxis(self, rng):
        a = t64((2, 3, 4), rng)
        out = moveaxis(a, 0, -1)
        assert out.shape == (3, 4, 2)
        gradcheck(lambda a: moveaxis(a, 0, -1), [a])

    def test_flip(self, rng):
        a = t64((3, 4), rng)
        gradcheck(lambda a: flip(a, axis=1), [a])
        gradcheck(lambda a: flip(a, axis=(0, 1)), [a])

    def test_pad(self, rng):
        a = t64((2, 3), rng)
        gradcheck(lambda a: pad(a, [(1, 2), (0, 1)]), [a])
        assert pad(a, [(1, 2), (0, 1)]).shape == (5, 4)

    def test_pad_value(self):
        a = Tensor(np.zeros((1, 1)))
        out = pad(a, [(1, 1), (1, 1)], value=7.0)
        assert out.data[0, 0] == 7.0

    def test_concat(self, rng):
        a, b, c = t64((2, 2), rng), t64((3, 2), rng), t64((1, 2), rng)
        out = concat([a, b, c], axis=0)
        assert out.shape == (6, 2)
        gradcheck(lambda a, b, c: concat([a, b, c], axis=0), [a, b, c])

    def test_concat_axis1(self, rng):
        a, b = t64((2, 2), rng), t64((2, 3), rng)
        gradcheck(lambda a, b: concat([a, b], axis=1), [a, b])


class TestZeroStuff:
    def test_shape(self):
        x = Tensor(np.ones((1, 1, 3, 3)))
        out = zero_stuff(x, (2, 2))
        assert out.shape == (1, 1, 5, 5)

    def test_values(self):
        x = Tensor(np.arange(4, dtype=np.float32).reshape(1, 1, 2, 2))
        out = zero_stuff(x, (2, 2)).data[0, 0]
        expected = np.array([[0, 0, 1], [0, 0, 0], [2, 0, 3]], dtype=np.float32)
        np.testing.assert_allclose(out, expected)

    def test_grad(self, rng):
        x = t64((1, 2, 3, 3), rng)
        gradcheck(lambda x: zero_stuff(x, (2, 2)), [x])
