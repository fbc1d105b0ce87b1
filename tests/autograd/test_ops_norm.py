"""Batch-norm op tests."""

import numpy as np
import pytest

from repro.autograd import Tensor, batch_norm

from tests.conftest import t64
from tests.gradcheck import gradcheck


@pytest.fixture
def rng():
    return np.random.default_rng(17)


class TestTrainingMode:
    def test_output_standardized(self, rng):
        x = Tensor(rng.standard_normal((8, 3, 6, 6)) * 4 + 2, dtype=np.float64)
        g = Tensor(np.ones(3, dtype=np.float64))
        b = Tensor(np.zeros(3, dtype=np.float64))
        y = batch_norm(x, g, b).data
        for c in range(3):
            assert y[:, c].mean() == pytest.approx(0.0, abs=1e-10)
            assert y[:, c].std() == pytest.approx(1.0, rel=1e-3)

    def test_gamma_beta_applied(self, rng):
        x = Tensor(rng.standard_normal((4, 2, 5, 5)), dtype=np.float64)
        g = Tensor(np.array([2.0, 3.0]))
        b = Tensor(np.array([-1.0, 1.0]))
        y = batch_norm(x, g, b).data
        assert y[:, 0].mean() == pytest.approx(-1.0, abs=1e-6)
        assert y[:, 1].std() == pytest.approx(3.0, rel=1e-2)

    def test_gradcheck_2d(self, rng):
        x = t64((3, 2, 4, 4), rng)
        g = t64(rng.uniform(0.5, 2.0, 2))
        b = t64((2,), rng)
        gradcheck(lambda x, g, b: batch_norm(x, g, b), [x, g, b],
                  rtol=1e-3, atol=1e-5)

    def test_gradcheck_3d(self, rng):
        x = t64((2, 2, 3, 3, 3), rng)
        g = t64(rng.uniform(0.5, 2.0, 2))
        b = t64((2,), rng)
        gradcheck(lambda x, g, b: batch_norm(x, g, b), [x, g, b],
                  rtol=1e-3, atol=1e-5)

