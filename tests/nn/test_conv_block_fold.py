"""An evaluation-mode BatchNorm ``ConvBlock`` under ``no_grad`` is one
engine call — BatchNorm folded into the weights and bias, bias and
LeakyReLU applied by the engine — a training-mode BatchNorm block is the
conv plus one BatchNorm op with LeakyReLU fused in, and every other block
is the op-by-op chain it always was.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import MGDiffNet
from repro.autograd import Tensor, no_grad
from repro.autograd.profiler import profile
from repro.backend import dtype_scope, realize, use_backend
from repro.nn.unet import ConvBlock


def _block(ndim, dtype, bias=True, **kwargs) -> ConvBlock:
    """A block with non-trivial running statistics, gamma and beta."""
    rng = np.random.default_rng(11)
    with dtype_scope(dtype):
        block = ConvBlock(ndim, 3, 5, rng, negative_slope=0.1, **kwargs)
    if not bias:
        block.conv.bias = None
    else:
        block.conv.bias.data = rng.standard_normal(5).astype(dtype)
    bn = block.bn
    if bn is not None:
        bn.gamma.data = rng.uniform(0.5, 2.0, 5).astype(dtype)
        bn.beta.data = rng.standard_normal(5).astype(dtype)
        bn.update_buffer("running_mean", rng.standard_normal(5).astype(dtype))
        bn.update_buffer("running_var", rng.uniform(0.3, 3.0, 5).astype(dtype))
    return block


def _input(ndim, dtype) -> Tensor:
    shape = (2, 3) + (9, 8, 7)[:ndim]
    return Tensor(np.random.default_rng(12).standard_normal(shape).astype(dtype))


def _op_by_op(block: ConvBlock, x: Tensor) -> Tensor:
    y = block.conv(x)
    if block.bn is not None:
        y = block.bn(y)
    return block.act(y)


def _fused_oracle(block: ConvBlock, y: np.ndarray) -> np.ndarray:
    """Training BatchNorm + LeakyReLU in the fused op's arithmetic, in
    plain NumPy: contiguous (N, C, S) statistics, the affine, max(y, s*y)."""
    bn, s = block.bn, block.act.negative_slope
    n, c = y.shape[:2]
    y3 = y.reshape(n, c, -1)
    m = y3.size // c
    mean = y3.sum(axis=2).sum(axis=0) / m
    var = ((y3 - mean[:, None]) ** 2).sum(axis=2).sum(axis=0) / m
    xhat = (y3 - mean[:, None]) * (1.0 / np.sqrt(var + bn.eps))[:, None]
    out = xhat * bn.gamma.data[:, None] + bn.beta.data[:, None]
    return np.maximum(out, s * out).reshape(y.shape)


def _applies(run) -> dict[str, int]:
    """Op name -> number of ``Function.apply`` calls ``run()`` makes."""
    with profile() as prof:
        run()
    return {name: stats.calls for name, stats in prof.forward.items()}


class TestFoldedBlock:
    @pytest.mark.parametrize("ndim", [2, 3])
    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-5),
                                           (np.float64, 1e-12)])
    def test_equals_the_op_by_op_block(self, ndim, bias, dtype, tol):
        block = _block(ndim, dtype, bias=bias).eval()
        x = _input(ndim, dtype)
        ref = _op_by_op(block, x).data          # the tape is on: op by op
        with no_grad():
            got = block(x).data
        assert got.dtype == dtype and got.shape == ref.shape
        assert np.abs(got - ref).max() <= tol * max(1.0, np.abs(ref).max())

    def test_is_one_conv_call(self):
        block = _block(3, np.float32).eval()
        x = _input(3, np.float32)
        with no_grad():
            assert _applies(lambda: block(x)) == {"ConvNd": 1}
        # With the tape on the same block records three ops.
        assert _applies(lambda: block(x)) == {
            "ConvNd": 1, "BatchNormInference": 1, "LeakyReLU": 1}

    def test_the_fold_follows_the_parameters(self):
        """Folded per call: new statistics or weights are picked up."""
        block = _block(2, np.float64).eval()
        x = _input(2, np.float64)
        with no_grad():
            before = block(x).data
            block.bn.update_buffer("running_mean", block.bn.running_mean + 1.0)
            block.conv.weight.data = block.conv.weight.data * 0.5
            after = block(x).data
        np.testing.assert_allclose(after, _op_by_op(block, x).data,
                                   rtol=1e-12, atol=1e-12)
        assert np.abs(after - before).max() > 1e-3


class TestEveryOtherBlockIsOpByOp:
    @pytest.mark.parametrize("training", [False, True])
    def test_bit_identical_to_the_chain(self, training):
        block = _block(2, np.float32, use_batchnorm=False).train(training)
        x = _input(2, np.float32)
        with no_grad():
            got = block(x).data
            names = _applies(lambda: block(x))
            assert names["ConvNd"] == 1 and names["LeakyReLU"] == 1
            # (Training-mode BatchNorm normalizes with batch statistics,
            # so the running ones it updates per call do not enter.)
            np.testing.assert_array_equal(got, _op_by_op(block, x).data)

    @pytest.mark.parametrize("ndim", [2, 3])
    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-5),
                                           (np.float64, 1e-12)])
    def test_training_batchnorm_block_fuses_the_activation(self, ndim, dtype,
                                                           tol):
        block = _block(ndim, dtype).train()
        x = _input(ndim, dtype)
        with no_grad():
            got = block(x).data
            names = _applies(lambda: block(x))
            assert names == {"ConvNd": 1, "BatchNorm": 1}
            np.testing.assert_array_equal(
                got, _fused_oracle(block, block.conv(x).data))
            ref = _op_by_op(block, x).data
        assert np.abs(got - ref).max() <= tol * max(1.0, np.abs(ref).max())

    def test_training_mode_records_the_tape(self):
        block = _block(2, np.float32)
        out = block(_input(2, np.float32))
        assert out.requires_grad
        out.sum().backward()
        assert block.conv.weight.grad is not None


class TestWholeNetwork:
    @pytest.mark.parametrize("ndim,resolution", [(2, 16), (3, 8)])
    def test_eval_forward_applies_no_activation_or_norm_op(self, ndim,
                                                           resolution):
        model = MGDiffNet(ndim=ndim, base_filters=4, depth=2, rng=2).eval()
        x = Tensor(np.random.default_rng(0).standard_normal(
            (1, 1) + (resolution,) * ndim).astype(np.float32))
        with no_grad():
            names = _applies(lambda: model.net(x))
        assert "LeakyReLU" not in names and "BatchNormInference" not in names
        # 5 ConvBlocks + 2 stride-2 down convs + the 1x1 head.
        assert names["ConvNd"] == 8 and names["ConvTransposeNd"] == 2

    def test_eval_forward_matches_the_taped_forward(self):
        model = MGDiffNet(ndim=3, base_filters=4, depth=2, rng=2).eval()
        x = Tensor(np.random.default_rng(0).standard_normal(
            (1, 1, 16, 16, 16)).astype(np.float32))
        ref = model.net(x).data
        with no_grad():
            got = model.net(x).data
        assert np.abs(got - ref).max() <= 1e-5

    def test_lazy_equals_eager(self):
        model = MGDiffNet(ndim=2, base_filters=4, depth=2, rng=5).eval()
        x = np.random.default_rng(1).standard_normal(
            (2, 1, 16, 16)).astype(np.float32)
        with no_grad():
            eager = model.net(Tensor(x)).data
            with use_backend("lazy"):
                lazy = realize(model.net(Tensor(x)).data)
        np.testing.assert_array_equal(lazy, eager)
