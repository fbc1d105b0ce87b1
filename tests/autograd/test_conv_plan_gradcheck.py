"""``conv_nd`` / ``conv_transpose_nd`` through the autograd layer: finite-
difference gradchecks across stride/padding/3D combinations, and value
parity with each of the two reference formulations in
``tests/conv_oracles.py`` (``tensordot``: the naive tap loop; ``im2col``:
a sliding-window contraction) — every case runs once per oracle.

This is the certification that the conv engine is a pure performance
matter: analytic gradients match finite differences, and values and
gradients agree with code that shares nothing with the engine to float64
precision.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd import Tensor, conv_nd, conv_transpose_nd, no_grad
from repro.autograd.ops_conv import tuplify

from tests.conftest import t64
from tests.gradcheck import gradcheck
from tests.conv_oracles import ORACLES, tap_loop_grads


CONV_CASES = [
    # (x_shape, w_shape, stride, padding)
    ((2, 2, 6, 6), (3, 2, 3, 3), 1, 0),
    ((2, 2, 6, 6), (3, 2, 3, 3), 1, 1),
    ((1, 3, 7, 7), (2, 3, 3, 3), 2, 1),
    ((2, 2, 6, 6), (3, 2, 2, 2), 2, 0),
    ((1, 2, 5, 5, 5), (2, 2, 3, 3, 3), 1, 1),       # 3D 'same'
    ((1, 2, 5, 5, 5), (3, 2, 2, 2, 2), 2, 0),       # 3D strided
    ((1, 2, 6, 5), (2, 2, 3, 2), (2, 1), (1, 0)),   # anisotropic
]

TRANSPOSE_CASES = [
    # (x_shape, w_shape (Cin, Cout, *K), stride, padding)
    ((2, 3, 4, 4), (3, 2, 2, 2), 2, 0),
    ((1, 2, 5, 5), (2, 3, 3, 3), 1, 1),
    ((1, 2, 4, 4), (2, 2, 3, 3), 2, 1),
    ((1, 2, 3, 3, 3), (2, 2, 2, 2, 2), 2, 0),       # 3D upsample
]

PATHS = list(ORACLES)


def _per_axis(value, shape):
    return tuplify(value, len(shape) - 2)


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("x_shape,w_shape,stride,padding", CONV_CASES)
def test_conv_nd_gradcheck(path, x_shape, w_shape, stride, padding, rng):
    x = t64(x_shape, rng)
    w = t64(w_shape, rng)
    b = t64((w_shape[0],), rng)
    gradcheck(lambda a, ww, bb: conv_nd(a, ww, bb, stride=stride,
                                        padding=padding), [x, w, b])
    ref = ORACLES[path](x.data, w.data, _per_axis(stride, x_shape),
                        _per_axis(padding, x_shape))
    np.testing.assert_allclose(
        conv_nd(x, w, stride=stride, padding=padding).data, ref,
        rtol=1e-11, atol=1e-11)


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("x_shape,w_shape,stride,padding", TRANSPOSE_CASES)
def test_conv_transpose_nd_gradcheck(path, x_shape, w_shape, stride, padding,
                                     rng):
    x = t64(x_shape, rng)
    w = t64(w_shape, rng)

    def fn(a, ww):
        return conv_transpose_nd(a, ww, stride=stride, padding=padding)

    gradcheck(fn, [x, w])
    # A transposed convolution is the adjoint of the convolution with the
    # same weights: <convT(x), y> == <x, conv(y)> for any y.
    out = fn(x, w).data
    y = rng.standard_normal(out.shape)
    conv_y = ORACLES[path](y, w.data, _per_axis(stride, x_shape),
                           _per_axis(padding, x_shape))
    assert np.sum(out * y) == pytest.approx(np.sum(x.data * conv_y),
                                            rel=1e-11, abs=1e-11)


@pytest.mark.parametrize("x_shape,w_shape,stride,padding", CONV_CASES)
def test_paths_agree_on_values_and_gradients(x_shape, w_shape, stride,
                                             padding, rng):
    """The engine is invisible to numerics: outputs and every input
    gradient agree with both reference paths to float64 round-off."""
    x = Tensor(rng.standard_normal(x_shape), requires_grad=True,
               dtype=np.float64)
    w = Tensor(rng.standard_normal(w_shape), requires_grad=True,
               dtype=np.float64)
    b = Tensor(rng.standard_normal((w_shape[0],)), requires_grad=True,
               dtype=np.float64)
    out = conv_nd(x, w, b, stride=stride, padding=padding)
    out.sum().backward()

    stride_t, padding_t = _per_axis(stride, x_shape), _per_axis(padding, x_shape)
    bias = b.data.reshape((1, -1) + (1,) * (len(x_shape) - 2))
    for oracle in ORACLES.values():
        np.testing.assert_allclose(
            out.data, oracle(x.data, w.data, stride_t, padding_t) + bias,
            rtol=1e-11, atol=1e-11)
    ones = np.ones(out.shape)
    dx, dw = tap_loop_grads(x.data, w.data, ones, stride_t, padding_t)
    for got, ref in ((x.grad, dx), (w.grad, dw),
                     (b.grad, np.full(w_shape[0], ones[:, 0].size))):
        np.testing.assert_allclose(got, ref, rtol=1e-11, atol=1e-11)


@pytest.mark.parametrize("path", PATHS)
def test_unet_forward_backward_on_both_paths(path, rng, monkeypatch):
    """A full 2D U-Net step runs on the engine, and its forward equals the
    same network with every convolution computed by a reference path."""
    from repro.autograd import ops_conv
    from repro.nn.unet import UNet

    net = UNet(ndim=2, in_channels=2, base_filters=4, depth=2, rng=3)
    x = Tensor(rng.standard_normal((1, 2, 8, 8)).astype(np.float32),
               requires_grad=False)
    out = net(x)
    out.sum().backward()
    grads = [p.grad for p in net.parameters() if p.grad is not None]
    assert grads and all(np.isfinite(g).all() for g in grads)

    def reference_forward(plan, x, w, bias, slope):
        assert slope is None            # a training-mode block is op by op
        x = np.concatenate(x, axis=1)   # the input's channel parts
        sig = plan.signature
        return (ORACLES[path](x, w, sig.stride, sig.padding)
                + bias.reshape(1, -1, 1, 1))

    monkeypatch.setattr(ops_conv, "conv_forward", reference_forward)
    with no_grad():
        ref = net(x)
    np.testing.assert_allclose(out.data, ref.data, rtol=1e-5, atol=1e-5)
