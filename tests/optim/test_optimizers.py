"""Optimizer tests: convergence on quadratics, state handling."""

import numpy as np
import pytest

from repro.nn import Parameter
from repro.optim import Adam


def _quadratic_params(rng):
    """min ||p - target||^2, grad = 2 (p - target)."""
    p = Parameter(rng.standard_normal(8).astype(np.float64))
    target = rng.standard_normal(8)
    return p, target


def _grad_step(p, target):
    p.grad = 2.0 * (p.data - target)


class TestAdam:
    def test_converges_on_quadratic(self):
        rng = np.random.default_rng(1)
        p, target = _quadratic_params(rng)
        opt = Adam([p], lr=0.05)
        for _ in range(500):
            _grad_step(p, target)
            opt.step()
        np.testing.assert_allclose(p.data, target, atol=1e-4)

    def test_first_step_magnitude_is_lr(self):
        """With bias correction, |first step| ~= lr regardless of grad scale."""
        for scale in (1e-3, 1.0, 1e3):
            p = Parameter(np.zeros(1, dtype=np.float64))
            opt = Adam([p], lr=0.01)
            p.grad = np.array([scale])
            opt.step()
            assert abs(p.data[0]) == pytest.approx(0.01, rel=1e-5)

    def test_none_grad_skipped(self):
        p = Parameter(np.ones(2, dtype=np.float64))
        Adam([p], lr=0.1).step()
        np.testing.assert_array_equal(p.data, 1.0)

    def test_invalid_hyperparams(self):
        p = Parameter(np.ones(1))
        with pytest.raises(ValueError):
            Adam([p], lr=-1.0)
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    def test_state_per_parameter(self):
        p1 = Parameter(np.zeros(2, dtype=np.float64))
        p2 = Parameter(np.zeros(3, dtype=np.float64))
        opt = Adam([p1, p2], lr=0.1)
        p1.grad = np.ones(2)
        p2.grad = np.ones(3)
        opt.step()
        assert opt.state[0]["m"].shape == (2,)
        assert opt.state[1]["m"].shape == (3,)

    def test_sync_params_preserves_state(self):
        """After architectural adaptation, surviving params keep moments."""
        from repro.nn import UNet

        net = UNet(ndim=2, base_filters=4, depth=2, rng=0)
        opt = Adam(net.parameters(), lr=0.01)
        for p in net.parameters():
            p.grad = np.ones_like(p.data)
        opt.step()
        kept = net.enc_blocks[0].conv.weight
        kept_idx = next(i for i, p in enumerate(opt.params) if p is kept)
        m_before = opt.state[kept_idx]["m"].copy()

        net.adapt_decoder(rng=1)
        opt.sync_params(net)
        new_idx = next(i for i, p in enumerate(opt.params) if p is kept)
        np.testing.assert_array_equal(opt.state[new_idx]["m"], m_before)
        assert len(opt.params) == len(list(net.parameters()))
