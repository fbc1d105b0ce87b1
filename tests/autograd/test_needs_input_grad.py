"""``Context.needs_input_grad``: gradients nobody reads are not computed.

``Function.apply`` tells each op which of its inputs feed a gradient;
``ConvNd``/``ConvTransposeNd``/``Mul``/``Add`` and the FEM ``Energy`` op
skip the rest — the first layer's ``dx``, the Dirichlet masks' gradients,
``K u`` under ``no_grad``.  Skipping must not change any gradient that *is*
read, bit for bit.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro import MGDiffNet, PoissonProblem, TrainConfig, Trainer
from repro.autograd import (Context, Function, Tensor, conv_nd,
                            conv_transpose_nd, is_grad_enabled, no_grad)
from repro.autograd import ops_conv
from repro.autograd.function import Node
from repro.core.trainer import backward_pass
from repro.fem import stencil

ENGINE = ("conv_forward", "conv_backward_data", "conv_backward_weight")


@pytest.fixture
def engine_calls(monkeypatch) -> Counter:
    """Counts of the conv-engine primitives the autograd ops call."""
    calls: Counter = Counter()

    def counting(name):
        primitive = getattr(ops_conv, name)

        def wrapper(*args):
            calls[name] += 1
            return primitive(*args)
        return wrapper

    for name in ENGINE:
        monkeypatch.setattr(ops_conv, name, counting(name))
    return calls


def _t(rng, *shape, requires_grad):
    return Tensor(rng.standard_normal(shape), requires_grad=requires_grad)


class TestOpsSkipUnreadGradients:
    def test_conv_with_a_constant_input_never_computes_dx(self, rng,
                                                          engine_calls):
        x = _t(rng, 2, 3, 6, 6, requires_grad=False)
        w = _t(rng, 4, 3, 3, 3, requires_grad=True)
        conv_nd(x, w, padding=1).sum().backward()
        assert engine_calls == {"conv_forward": 1, "conv_backward_weight": 1}
        assert w.grad is not None and x.grad is None

    def test_conv_with_a_constant_kernel_never_computes_dw(self, rng,
                                                           engine_calls):
        x = _t(rng, 2, 3, 6, 6, requires_grad=True)
        w = _t(rng, 4, 3, 3, 3, requires_grad=False)
        b = _t(rng, 4, requires_grad=False)
        conv_nd(x, w, b, padding=1).sum().backward()
        assert engine_calls == {"conv_forward": 1, "conv_backward_data": 1}
        assert x.grad is not None and w.grad is None and b.grad is None

    def test_transposed_conv_skips_the_same_two(self, rng, engine_calls):
        # Its forward is the engine's data gradient, its dx the forward.
        x = _t(rng, 2, 3, 4, 4, requires_grad=False)
        w = _t(rng, 3, 2, 2, 2, requires_grad=True)
        conv_transpose_nd(x, w, stride=2).sum().backward()
        assert engine_calls == {"conv_backward_data": 1,
                                "conv_backward_weight": 1}
        engine_calls.clear()
        x.requires_grad, w.requires_grad = True, False
        conv_transpose_nd(x, w, stride=2).sum().backward()
        assert engine_calls == {"conv_backward_data": 1, "conv_forward": 1}

    @pytest.mark.parametrize("op", [lambda a, b: a * b, lambda a, b: a + b])
    def test_mul_and_add_return_none_for_a_constant_operand(self, rng, op):
        a = _t(rng, 2, 3, requires_grad=True)
        mask = _t(rng, 1, 3, requires_grad=False)
        node = op(a, mask)._node
        assert node.ctx.needs_input_grad == (True, False)
        assert node.parents == (a, None)
        ga, gmask = node.fn.backward(node.ctx, np.ones((2, 3)))
        assert ga.shape == (2, 3) and gmask is None
        node = op(mask, a)._node
        gmask, ga = node.fn.backward(node.ctx, np.ones((2, 3)))
        assert ga.shape == (2, 3) and gmask is None

    def test_flags_are_all_false_when_the_tape_is_off(self, rng):
        a = _t(rng, 2, 3, requires_grad=True)
        seen = []

        class Probe(Function):
            @staticmethod
            def forward(ctx, x, y, k):
                seen.append(ctx.needs_input_grad)
                return x + y

        Probe.apply(a, Tensor(np.ones((2, 3))), 3)
        with no_grad():
            out = Probe.apply(a, a, 3)
        assert seen == [(True, False, False), (False, False, False)]
        assert not out.requires_grad


def _unpruned_apply(cls, *args, **kwargs):
    """``Function.apply`` as it was before ``needs_input_grad`` existed:
    every backward computes every gradient and the walk drops the rest."""
    ctx = Context((True,) * len(args))
    out_data = cls.forward(
        ctx, *(a.data if isinstance(a, Tensor) else a for a in args), **kwargs)
    requires = is_grad_enabled() and any(
        isinstance(a, Tensor) and a.requires_grad for a in args)
    out = Tensor(out_data, requires_grad=requires)
    if requires:
        out._node = Node(cls, ctx, tuple(
            (a._node or a) if isinstance(a, Tensor) and a.requires_grad
            else None for a in args))
    return out


@pytest.mark.parametrize("ndim,resolution", [(2, 16), (3, 8)])
def test_every_gradient_that_is_read_is_bitwise_unchanged(
        ndim, resolution, monkeypatch, engine_calls):
    """One full Algorithm-1 ``backward_pass``, pruned and unpruned: same
    loss, same gradient on every parameter, and exactly one data gradient
    fewer — the first layer's."""
    problem = PoissonProblem(ndim, resolution)
    dataset = problem.make_dataset(3)
    x, nu = dataset.inputs_at(resolution), dataset.nu_at(resolution)
    masks = problem.masks(resolution, dtype=x.dtype)
    energy = problem.energy(resolution)

    def run():
        model = MGDiffNet(ndim=ndim, base_filters=4, depth=2, rng=0)
        engine_calls.clear()
        loss = backward_pass(model, x, nu, masks, energy)
        return loss, [p.grad for p in model.parameters()], dict(engine_calls)

    loss, grads, calls = run()
    monkeypatch.setattr(Function, "apply", classmethod(_unpruned_apply))
    ref_loss, ref_grads, ref_calls = run()

    assert loss == ref_loss
    assert len(grads) == len(ref_grads) and all(g is not None for g in grads)
    for g, ref in zip(grads, ref_grads):
        assert np.array_equal(g, ref)
    # The U-Net's transposed convs run conv_backward_data forward and
    # conv_forward backward; only the input layer's dx has no reader.
    pruned = {name: ref_calls[name] - calls[name] for name in ENGINE}
    assert pruned == {"conv_forward": 0, "conv_backward_data": 1,
                      "conv_backward_weight": 0}


def test_evaluate_loss_computes_no_adjoint(monkeypatch):
    """Under ``no_grad`` the energy op stops after the Gauss-point sum (no
    ``D^T q``) and still returns the value the taped op returns."""
    problem = PoissonProblem(2, 16)
    dataset = problem.make_dataset(4)
    model = MGDiffNet(ndim=2, base_filters=4, depth=2, rng=0)
    trainer = Trainer(model, problem, dataset, TrainConfig(batch_size=4))
    adjoints = []
    conv_energy = stencil.conv_energy

    def spy(*args, adjoint=True):
        adjoints.append(adjoint)
        return conv_energy(*args, adjoint=adjoint)

    monkeypatch.setattr(stencil, "conv_energy", spy)
    value = trainer.evaluate_loss(16)
    assert adjoints == [False]

    with model.evaluating():
        u = model(Tensor(dataset.inputs_at(16)),
                  *problem.masks(16, dtype=np.float32))
        taped = problem.energy(16)(u, dataset.nu_at(16))
    assert adjoints == [False, True] and taped.requires_grad
    assert value == float(taped.data)
