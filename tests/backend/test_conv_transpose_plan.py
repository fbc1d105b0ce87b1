"""Transposed convolution on the conv engine vs the composed reference.

``conv_transpose_nd`` runs the engine's primitives with their roles
swapped (forward = the adjoint conv's data gradient).  It must be
numerically interchangeable with the original composition (zero-stuff,
pad, flip, stride-1 conv), written here in float64 NumPy over the tap
loop of ``tests/conv_oracles.py``, for every supported (stride, padding,
output_padding) combination, in forward and in every gradient — that is
what lets it be the only production path.  Also pinned: it plans through
the one memo, per-axis ``output_padding`` validation, and gradcheck.
"""

import numpy as np
import pytest

from repro.autograd import Tensor, conv_transpose_nd, tuplify
from repro.backend.conv_plan import (
    clear_plan_cache, plan_cache_info, plan_conv,
)

from tests.conv_oracles import tap_loop, tap_loop_grads
from tests.gradcheck import gradcheck


def _engine(x, w, b, st, p, op):
    """``y`` and the gradients of ``sum(y * y)`` through the autograd op."""
    xt = Tensor(x.copy(), requires_grad=True)
    wt = Tensor(w.copy(), requires_grad=True)
    bt = Tensor(b.copy(), requires_grad=True) if b is not None else None
    y = conv_transpose_nd(xt, wt, bt, stride=st, padding=p, output_padding=op)
    (y * y).sum().backward()
    return y.numpy(), xt.grad, wt.grad, bt.grad if bt is not None else None


def _composed(x, w, b, st, p, op):
    """The same four arrays from the composition: zero-stuff ``x`` by the
    stride, pad it by ``k - 1 - p`` (plus ``output_padding`` on the high
    side) and convolve at stride 1 with the flipped, channel-transposed
    kernel.  ``sum(y * y)`` is quadratic, so the tap loop's adjoint of
    ``2 y`` is its gradient exactly."""
    nd = x.ndim - 2
    st, p, op = (tuplify(v, nd) for v in (st, p, op))
    every = (slice(None),) * 2 + tuple(slice(None, None, s) for s in st)
    stuffed = np.zeros(x.shape[:2] + tuple((n - 1) * s + 1 for n, s in
                                           zip(x.shape[2:], st)))
    stuffed[every] = x
    pads = [(k - 1 - pp, k - 1 - pp + o)
            for k, pp, o in zip(w.shape[2:], p, op)]
    xp = np.pad(stuffed, [(0, 0), (0, 0)] + pads)
    axes = tuple(range(2, 2 + nd))
    wt = np.moveaxis(np.flip(w, axes), 0, 1)
    y = tap_loop(xp, wt, (1,) * nd, (0,) * nd)
    if b is not None:
        y = y + b.reshape((1, -1) + (1,) * nd)
    dxp, dwt = tap_loop_grads(xp, wt, 2 * y, (1,) * nd, (0,) * nd)
    inner = (slice(None),) * 2 + tuple(
        slice(lo, lo + n) for (lo, _), n in zip(pads, stuffed.shape[2:]))
    return (y, dxp[inner][every], np.flip(np.moveaxis(dwt, 0, 1), axes),
            None if b is None else (2 * y).sum(axis=(0,) + axes))


CASES = [
    # (nd, N, Cin, Cout, S, k, stride, padding, output_padding, bias)
    (1, 2, 3, 4, 9, 3, 2, 1, 1, True),
    (1, 1, 2, 2, 7, 4, 3, 2, 0, False),
    (2, 2, 3, 2, 6, 3, 2, 1, 1, True),
    (2, 1, 2, 3, 5, 2, 2, 0, 0, True),
    (2, 2, 2, 2, 5, 3, 1, 1, 0, False),
    (3, 1, 2, 2, 4, 2, 2, 0, 1, True),
    (3, 2, 1, 2, 3, 3, 1, 1, 0, True),
]


class TestScatterParity:
    @pytest.mark.parametrize("nd,N,ci,co,S,k,st,p,op,bias", CASES)
    def test_matches_composed_path(self, nd, N, ci, co, S, k, st, p, op,
                                   bias):
        rng = np.random.default_rng(nd * 100 + st * 10 + p)
        x = rng.standard_normal((N, ci) + (S,) * nd)
        w = rng.standard_normal((ci, co) + (k,) * nd)
        b = rng.standard_normal(co) if bias else None
        for name, s_val, c_val in zip(("y", "dx", "dw", "db"),
                                      _engine(x, w, b, st, p, op),
                                      _composed(x, w, b, st, p, op)):
            if s_val is None:
                continue
            assert s_val.shape == c_val.shape, name
            np.testing.assert_allclose(s_val, c_val, atol=1e-10, rtol=1e-10,
                                       err_msg=name)


class TestScatterGradcheck:
    def test_gradcheck_strided_padded(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.standard_normal((2, 2, 5, 5)), requires_grad=True)
        w = Tensor(rng.standard_normal((2, 3, 3, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal(3), requires_grad=True)
        gradcheck(lambda x, w, b: conv_transpose_nd(
            x, w, b, stride=2, padding=1, output_padding=1), (x, w, b))

    def test_gradcheck_3d(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.standard_normal((1, 2, 3, 3, 3)), requires_grad=True)
        w = Tensor(rng.standard_normal((2, 2, 2, 2, 2)), requires_grad=True)
        gradcheck(lambda x, w: conv_transpose_nd(x, w, stride=2), (x, w))


class TestPlanning:
    def test_plan_memoized(self):
        """One geometry memo serves both directions: the plan is that of
        the adjoint convolution (output shape in, input shape out)."""
        clear_plan_cache()
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((1, 2, 8, 8)))
        w = Tensor(rng.standard_normal((2, 3, 3, 3)))
        for _ in range(2):
            y = conv_transpose_nd(x, w, stride=2, padding=1)
        assert plan_cache_info() == {"hits": 1, "misses": 1, "size": 1}
        plan = plan_conv(y.shape, w.shape, (2, 2), (1, 1), y.dtype)
        assert plan_cache_info() == {"hits": 2, "misses": 1, "size": 1}
        assert plan.signature.out_spatial == x.shape[2:]
        clear_plan_cache()


class TestOutputPaddingValidation:
    def test_checked_against_the_axis_own_stride(self):
        x = Tensor(np.zeros((1, 2, 4, 4)))
        w = Tensor(np.zeros((2, 2, 3, 3)))
        # 1 < max(stride) but not < the second axis's stride of 1.
        with pytest.raises(ValueError, match="output_padding"):
            conv_transpose_nd(x, w, stride=(2, 1), output_padding=(0, 1))
        y = conv_transpose_nd(x, w, stride=(2, 1), output_padding=(1, 0))
        assert y.shape == (1, 2, 10, 6)
