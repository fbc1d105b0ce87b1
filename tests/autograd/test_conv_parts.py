"""The convolution of channel parts: ``conv_nd((up, skip), w)`` is the
convolution of ``concat([up, skip], axis=1)``, computed without building
the concatenation (the engine copies each part into its own rows of the
column scratch).

Finite-difference gradchecks, and bit-for-bit parity with the
composition ``concat`` + conv, kept here as the reference (``_Concat``,
the op the U-Net applied before its conv took parts): outputs and every
gradient op by op, the U-Net's ``UpBlock`` in training and in folded
evaluation mode, and one V-cycle of 3-D multigrid training at the
benchmark's size.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np
import pytest

from repro import MGDiffNet, MGTrainConfig, MultigridTrainer, PoissonProblem3D
from repro.autograd import Context, Function, Tensor, conv_nd, no_grad
from repro.nn.unet import UpBlock

from tests.conftest import t64
from tests.gradcheck import gradcheck

# (spatial dims, stride, kernel): padding k // 2 throughout.
CASES = [(nd, stride, k) for nd in (2, 3) for stride in (1, 2) for k in (1, 3)]


class _Concat(Function):
    """The parts joined along the channel axis; the gradient is split back."""

    @staticmethod
    def forward(ctx: Context, *parts: np.ndarray) -> np.ndarray:
        ctx.meta["sizes"] = [part.shape[1] for part in parts]
        return np.concatenate(parts, axis=1)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        return tuple(np.split(grad, list(accumulate(ctx.meta["sizes"]))[:-1],
                              axis=1))


def conv_nd_composed(parts, w, b=None, stride=1, padding=0,
                     negative_slope=None):
    """Reference semantics of a multi-part ``conv_nd``: concatenate the
    parts along the channels, then convolve."""
    return conv_nd(_Concat.apply(*parts), w, b, stride, padding,
                   negative_slope)


def up_block_composed(self, x, skip):
    """Reference semantics of :meth:`UpBlock.forward`."""
    return self.block(_Concat.apply(self.upconv(x), skip))


def _operands(nd, k, dtype, rng):
    spatial = (6, 5, 4)[:nd]
    return [rng.standard_normal(shape).astype(dtype) for shape in
            [(2, 2) + spatial, (2, 3) + spatial, (4, 5) + (k,) * nd, (4,)]]


@pytest.mark.parametrize("nd,stride,k", CASES)
def test_gradcheck(nd, stride, k, rng):
    up, skip, w, b = (t64(a) for a in _operands(nd, k, np.float64, rng))
    gradcheck(lambda u, s, ww, bb: conv_nd((u, s), ww, bb, stride=stride,
                                           padding=k // 2),
              [up, skip, w, b])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("nd,stride,k", CASES)
def test_bitwise_equal_to_concat_then_conv(nd, stride, k, dtype, rng):
    arrays = _operands(nd, k, dtype, rng)
    results = []
    for fn in (conv_nd, conv_nd_composed):
        up, skip, w, b = (Tensor(a, requires_grad=True) for a in arrays)
        out = fn((up, skip), w, b, stride=stride, padding=k // 2)
        grad = np.random.default_rng(5).standard_normal(out.shape)
        (out * Tensor(grad.astype(dtype))).sum().backward()
        results.append([out.data, up.grad, skip.grad, w.grad, b.grad])
    for got, ref in zip(*results):
        assert got.dtype == ref.dtype
        np.testing.assert_array_equal(got, ref)


def test_only_the_parts_that_need_a_gradient_get_one(rng):
    up, skip, w, b = _operands(3, 3, np.float32, rng)
    up = Tensor(up, requires_grad=True)
    skip, w = Tensor(skip), Tensor(w, requires_grad=True)
    conv_nd([up, skip], w, Tensor(b), padding=1).sum().backward()
    assert up.grad.shape == up.shape and skip.grad is None
    assert w.grad.shape == w.shape


def test_parts_must_agree_outside_the_channels(rng):
    up, skip, w, _ = _operands(2, 3, np.float32, rng)
    with pytest.raises(ValueError, match="outside the channel axis"):
        conv_nd((Tensor(up), Tensor(skip[:, :, :4])), Tensor(w), padding=1)
    with pytest.raises(ValueError, match="C_in"):
        conv_nd((Tensor(up), Tensor(up)), Tensor(w), padding=1)


@pytest.mark.parametrize("training", [True, False])
def test_up_block_equals_its_concat_composition(training, monkeypatch):
    """A training step (conv, then BatchNorm with LeakyReLU) and a folded
    evaluation forward (one engine call) give the same bits as the block
    that concatenated the skip first."""
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2, 8, 4, 4, 4)).astype(np.float32)
    skip = rng.standard_normal((2, 4, 8, 8, 8)).astype(np.float32)
    results = []
    for forward in (UpBlock.forward, up_block_composed):
        monkeypatch.setattr(UpBlock, "forward", forward)
        block = UpBlock(3, 8, 4, 4, np.random.default_rng(4))
        if training:
            xs, ss = Tensor(x, requires_grad=True), Tensor(skip,
                                                           requires_grad=True)
            block(xs, ss).sum().backward()
            results.append([xs.grad, ss.grad] + [p.grad for p in
                                                 block.parameters()])
        else:
            block.eval()
            with no_grad():
                results.append([block(Tensor(x), Tensor(skip)).data])
    for got, ref in zip(*results):
        np.testing.assert_array_equal(got, ref)


def _v_cycle(seed: int):
    problem = PoissonProblem3D(32)
    dataset = problem.make_dataset(8)
    model = MGDiffNet(ndim=3, base_filters=4, depth=2, rng=seed)
    config = MGTrainConfig(batch_size=4, restriction_epochs=1,
                           max_epochs_per_level=3, patience=10 ** 6)
    result = MultigridTrainer(model, problem, dataset, strategy="v",
                              levels=3, config=config).train()
    losses = [loss for rec in result.records for loss in rec.result.losses]
    return losses, [p.data.copy() for p in model.parameters()]


def test_a_v_cycle_trains_the_same_bits_as_the_concat_network(monkeypatch):
    """One 3-level V-cycle at 32^3 (11 epochs, 8 samples, batch 4): every
    loss and every trained weight equal the concatenating network's."""
    losses, params = _v_cycle(1)
    monkeypatch.setattr(UpBlock, "forward", up_block_composed)
    ref_losses, ref_params = _v_cycle(1)
    assert len(losses) == 11 and losses == ref_losses
    for got, ref in zip(params, ref_params):
        np.testing.assert_array_equal(got, ref)
