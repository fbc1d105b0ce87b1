"""Parametrized gradchecks for ``conv_nd``/``conv_transpose_nd`` across
stride/padding/3D combinations on *both* conv-plan execution paths, plus
end-to-end numerical parity between the paths through the autograd layer.

This is the certification that the planning conv engine is a pure
performance decision: analytic gradients match finite differences on
every path, and the two paths agree with each other to float64 precision
for values *and* gradients.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd import Tensor, conv_nd, conv_transpose_nd, gradcheck

from tests.conftest import t64


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
    # (x_shape, w_shape (Cin, Cout, *K), stride, padding, output_padding)
    ((2, 3, 4, 4), (3, 2, 2, 2), 2, 0, 0),
    ((1, 2, 5, 5), (2, 3, 3, 3), 1, 1, 0),
    ((1, 2, 4, 4), (2, 2, 3, 3), 2, 1, 1),
    ((1, 2, 3, 3, 3), (2, 2, 2, 2, 2), 2, 0, 0),    # 3D upsample
]

PATHS = ["tensordot", "im2col"]


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("x_shape,w_shape,stride,padding", CONV_CASES)
def test_conv_nd_gradcheck(path, x_shape, w_shape, stride, padding, rng,
                           force_conv_path):
    force_conv_path(path)
    x = t64(x_shape, rng)
    w = t64(w_shape, rng)
    b = t64((w_shape[0],), rng)
    gradcheck(lambda a, ww, bb: conv_nd(a, ww, bb, stride=stride,
                                        padding=padding), [x, w, b])


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("x_shape,w_shape,stride,padding,outpad",
                         TRANSPOSE_CASES)
def test_conv_transpose_nd_gradcheck(path, x_shape, w_shape, stride, padding,
                                     outpad, rng, force_conv_path):
    force_conv_path(path)
    x = t64(x_shape, rng)
    w = t64(w_shape, rng)
    gradcheck(lambda a, ww: conv_transpose_nd(a, ww, stride=stride,
                                              padding=padding,
                                              output_padding=outpad), [x, w])


@pytest.mark.parametrize("x_shape,w_shape,stride,padding", CONV_CASES)
def test_paths_agree_on_values_and_gradients(x_shape, w_shape, stride,
                                             padding, rng, force_conv_path):
    """The plan is invisible to numerics: outputs and every input gradient
    must agree between the two engines to float64 round-off."""
    x_data = rng.standard_normal(x_shape)
    w_data = rng.standard_normal(w_shape)
    b_data = rng.standard_normal((w_shape[0],))

    results = {}
    for path in PATHS:
        force_conv_path(path)
        x = Tensor(x_data.copy(), requires_grad=True, dtype=np.float64)
        w = Tensor(w_data.copy(), requires_grad=True, dtype=np.float64)
        b = Tensor(b_data.copy(), requires_grad=True, dtype=np.float64)
        out = conv_nd(x, w, b, stride=stride, padding=padding)
        out.sum().backward()
        results[path] = (out.data, x.grad, w.grad, b.grad)

    for ref, fast in zip(results["tensordot"], results["im2col"]):
        np.testing.assert_allclose(fast, ref, rtol=1e-11, atol=1e-11)


@pytest.mark.parametrize("path", PATHS)
def test_unet_forward_backward_on_both_paths(path, rng, force_conv_path):
    """A full 2D U-Net step runs on either forced path (smoke)."""
    from repro.nn.unet import UNet

    force_conv_path(path)
    net = UNet(ndim=2, in_channels=2, base_filters=4, depth=2, rng=3)
    x = Tensor(rng.standard_normal((1, 2, 8, 8)).astype(np.float32),
               requires_grad=False)
    out = net(x)
    out.sum().backward()
    grads = [p.grad for p in net.parameters() if p.grad is not None]
    assert grads and all(np.isfinite(g).all() for g in grads)
