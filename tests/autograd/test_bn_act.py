"""Training-mode BatchNorm with its LeakyReLU epilogue fused in, and the
branch-free LeakyReLU both use.

The fused op (``BatchNorm`` with ``negative_slope``) must match the
op-by-op chain — BatchNorm with statistics reduced over axes
``(0, *spatial)`` as the module used to, then LeakyReLU — in its output
and all three gradients; the module's running statistics must match the
old update; and ``max(a, s*a)`` / ``grad * max(mask, s)`` must be bitwise
the ``where`` forms they replace.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.autograd import Tensor, batch_norm, leaky_relu
from repro.autograd.profiler import profile
from repro.backend import dtype_scope
from repro.nn import BatchNorm

from tests.gradcheck import gradcheck

TOL = {np.float32: 1e-5, np.float64: 1e-12}

shapes = st.sampled_from([(2, 3, 5, 4), (3, 2, 6, 7), (2, 3, 4, 3, 5),
                          (1, 4, 3, 3, 3), (4, 1, 8, 2)])
slopes = st.one_of(st.sampled_from([0.0, 0.01, 1.0]),
                   st.floats(0.0, 1.0, allow_nan=False))
dtypes = st.sampled_from([np.float32, np.float64])


def _axes(x: np.ndarray) -> tuple[int, ...]:
    return (0,) + tuple(range(2, x.ndim))


def _case(shape, dtype, seed):
    rng = np.random.default_rng(seed)
    c = shape[1]
    x = (rng.standard_normal(shape) * 2.0 + rng.standard_normal(
        (1, c) + (1,) * (len(shape) - 2))).astype(dtype)
    gamma = rng.uniform(0.5, 2.0, c).astype(dtype)
    beta = rng.standard_normal(c).astype(dtype)
    grad = rng.standard_normal(shape).astype(dtype)
    return x, gamma, beta, grad


def _chain(x, gamma, beta, grad, slope):
    """(out, dx, dgamma, dbeta) of the op-by-op chain in plain NumPy:
    BatchNorm reducing over axes (0, *spatial), then the ``where``
    LeakyReLU, each with its own backward."""
    axes, gs = _axes(x), (1, -1) + (1,) * (x.ndim - 2)
    inv_std = 1.0 / np.sqrt(x.var(axis=axes).reshape(gs) + 1e-5)
    xhat = (x - x.mean(axis=axes).reshape(gs)) * inv_std
    y = gamma.reshape(gs) * xhat + beta.reshape(gs)
    out = np.where(y > 0, y, slope * y)
    g = np.where(y > 0, grad, slope * grad)
    m = x.size // x.shape[1]
    dx = gamma.reshape(gs) * inv_std / m * (
        m * g - g.sum(axis=axes, keepdims=True)
        - xhat * (g * xhat).sum(axis=axes, keepdims=True))
    return out, dx, (g * xhat).sum(axis=axes), g.sum(axis=axes)


def _tape(x, gamma, beta, grad, slope, fused=True):
    """(out, dx, dgamma, dbeta) on the tape: the fused op, or BatchNorm
    then the LeakyReLU op."""
    tx, tg, tb = (Tensor(a, requires_grad=True) for a in (x, gamma, beta))
    if fused:
        out = batch_norm(tx, tg, tb, negative_slope=slope)
    else:
        out = leaky_relu(batch_norm(tx, tg, tb), slope)
    out.backward(grad)
    return out.data, tx.grad, tg.grad, tb.grad


def _close(got, ref, tol):
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert np.abs(got - ref).max() <= tol * max(1.0, np.abs(ref).max())


class TestFusedOp:
    @settings(max_examples=40, deadline=None)
    @given(shape=shapes, slope=slopes, dtype=dtypes,
           seed=st.integers(0, 2**16))
    def test_matches_the_op_by_op_chain(self, shape, slope, dtype, seed):
        case = _case(shape, dtype, seed)
        ref = _chain(*case, slope)
        for fused in (True, False):
            for g, r in zip(_tape(*case, slope, fused), ref):
                _close(g, r, TOL[dtype])

    def test_is_one_op(self):
        x, gamma, beta, grad = _case((2, 3, 4, 4, 4), np.float32, 0)
        with profile() as prof:
            out = batch_norm(*(Tensor(a, requires_grad=True)
                               for a in (x, gamma, beta)), negative_slope=0.1)
            out.backward(grad)
        assert {k: v.calls for k, v in prof.forward.items()} == {"BatchNorm": 1}

    @pytest.mark.parametrize("slope", [0.01, 0.3])
    def test_gradcheck(self, slope):
        rng = np.random.default_rng(4)
        x = Tensor(rng.standard_normal((2, 3, 4, 3)), requires_grad=True)
        gamma = Tensor(rng.uniform(0.5, 2.0, 3), requires_grad=True)
        beta = Tensor(rng.standard_normal(3), requires_grad=True)
        w = Tensor(rng.standard_normal((2, 3, 4, 3)))
        gradcheck(lambda x, g, b: (batch_norm(x, g, b, negative_slope=slope)
                                   * w).sum(), [x, gamma, beta])

    def test_inputs_are_not_overwritten(self):
        x, gamma, beta, grad = _case((2, 3, 5, 4), np.float64, 1)
        kept = [a.copy() for a in (x, gamma, beta, grad)]
        _tape(x, gamma, beta, grad, 0.1)
        for a, b in zip((x, gamma, beta, grad), kept):
            np.testing.assert_array_equal(a, b)


class TestModule:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(4, 3, 6, 5), (2, 3, 4, 5, 6)])
    def test_running_statistics_match_the_old_update(self, dtype, shape):
        with dtype_scope(dtype):
            bn = BatchNorm(shape[1])
        rm = np.zeros(shape[1], dtype)
        rv = np.ones(shape[1], dtype)
        for seed in range(3):
            x, _, _, _ = _case(shape, dtype, seed)
            bn(Tensor(x), negative_slope=0.01)
            # The module before the fused op: axis reductions, momentum,
            # unbiased variance.
            n = x.size // shape[1]
            rm = (0.9 * rm + 0.1 * x.mean(axis=_axes(x))).astype(dtype)
            rv = (0.9 * rv + 0.1 * x.var(axis=_axes(x)) * (n / (n - 1))
                  ).astype(dtype)
            _close(bn.running_mean, rm, TOL[dtype])
            _close(bn.running_var, rv, TOL[dtype])
        assert int(bn.num_batches_tracked) == 3


class TestBranchFreeLeakyReLU:
    @settings(max_examples=60, deadline=None)
    @given(a=hnp.arrays(np.float64, st.integers(1, 64),
                        elements=st.floats(-1e6, 1e6, width=32)),
           slope=slopes, dtype=dtypes)
    @example(a=np.array([-0.0, 0.0, -1.0, 1.0, 1e-30]), slope=0.0,
             dtype=np.float32)
    @example(a=np.array([-0.0, 0.0, -3.0, 2.0]), slope=1.5, dtype=np.float64)
    @example(a=np.array([-0.0, 0.0, -3.0, 2.0]), slope=-0.2,
             dtype=np.float64)
    def test_equals_the_where_form(self, a, slope, dtype):
        a = a.astype(dtype)
        g = np.random.default_rng(a.size).standard_normal(a.size).astype(dtype)
        g[::3] = -0.0
        x = Tensor(a, requires_grad=True)
        out = leaky_relu(x, slope)
        out.backward(g)
        mask = a > 0
        np.testing.assert_array_equal(out.data, np.where(mask, a, slope * a))
        np.testing.assert_array_equal(x.grad, np.where(mask, g, slope * g))
        # Signed zeros too: array_equal treats -0.0 == 0.0.
        np.testing.assert_array_equal(np.signbit(x.grad),
                                      np.signbit(np.where(mask, g, slope * g)))
