"""Activation/transcendental op tests."""

import numpy as np
import pytest

from repro.autograd import Tensor, gradcheck, softplus

from tests.conftest import t64


@pytest.fixture
def rng():
    return np.random.default_rng(3)


class TestGradchecks:
    def test_exp(self, rng):
        gradcheck(lambda a: a.exp(), [t64((4, 4), rng)])

    def test_log(self, rng):
        a = t64(rng.uniform(0.5, 3.0, (4,)))
        gradcheck(lambda a: a.log(), [a])

    def test_sigmoid(self, rng):
        gradcheck(lambda a: a.sigmoid(), [t64((5, 5), rng)], rtol=1e-3)

    def test_tanh(self, rng):
        gradcheck(lambda a: a.tanh(), [t64((5,), rng)], rtol=1e-3)

    def test_relu(self, rng):
        a = t64((6, 6), rng)
        a.data[np.abs(a.data) < 0.05] = 0.5  # keep away from the kink
        gradcheck(lambda a: a.relu(), [a])

    def test_leaky_relu(self, rng):
        a = t64((6, 6), rng)
        a.data[np.abs(a.data) < 0.05] = 0.5
        gradcheck(lambda a: a.leaky_relu(0.1), [a])

    def test_abs(self, rng):
        a = t64((6,), rng)
        a.data[np.abs(a.data) < 0.05] = 0.5
        gradcheck(lambda a: a.abs(), [a])

    def test_softplus(self, rng):
        gradcheck(lambda a: softplus(a), [t64((5,), rng)], rtol=1e-3)


class TestNumericalStability:
    def test_sigmoid_extreme_inputs(self):
        x = Tensor(np.array([-500.0, 0.0, 500.0]))
        y = x.sigmoid().data
        assert np.all(np.isfinite(y))
        np.testing.assert_allclose(y, [0.0, 0.5, 1.0], atol=1e-12)

    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-7),
                                           (np.float64, 1e-15)])
    def test_sigmoid_is_accurate_in_each_dtype(self, dtype, tol):
        x = np.linspace(-40.0, 40.0, 200_001).astype(dtype)
        ref = 1.0 / (1.0 + np.exp(-x.astype(np.float64)))
        y = Tensor(x).sigmoid().data
        assert y.dtype == dtype
        assert np.abs(y - ref).max() <= tol
        assert y.min() >= 0.0 and y.max() <= 1.0

    def test_softplus_large_input_no_overflow(self):
        x = Tensor(np.array([800.0]))
        assert np.isfinite(softplus(x).data).all()

    def test_leaky_relu_values(self):
        x = Tensor(np.array([-2.0, 3.0]))
        np.testing.assert_allclose(x.leaky_relu(0.1).data, [-0.2, 3.0])

    def test_relu_zero_has_zero_grad(self):
        x = Tensor(np.array([0.0]), requires_grad=True, dtype=np.float64)
        x.relu().sum().backward()
        np.testing.assert_allclose(x.grad, [0.0])
