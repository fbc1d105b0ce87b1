"""The fused energy op against the op-by-op chain and the stored operator.

``EnergyLoss.per_sample`` is one ``Function`` over one kernel
(``fem.stencil.apply_stiffness`` -> ``backend.conv_plan.conv_energy``).
Over random dimension, resolution, Gauss order, batch size, forcing
and dtype its value must equal the op-by-op chain it replaced
(``energy_oracle.chain_energy``), its gradient must equal ``K u -
b`` of the stored stencil, and a sample's energy must not depend on what
else is in the batch — bitwise.
"""

from __future__ import annotations

import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.autograd import Tensor, no_grad
from repro.fem import EnergyLoss, GaussRule, UniformGrid, assemble_load
from repro.fem.stencil import StencilOperator, apply_stiffness
from tests.fem.energy_oracle import chain_energy
from tests.gradcheck import gradcheck
from tests.peak_rss import PEAK_MB

# float32: a few ulp per Gauss-point term, summed in float64.
VALUE_RTOL = {np.float32: 1e-6, np.float64: 1e-12}
GRAD_RTOL = 1e-12


def problems(test):
    for ndim, resolution in ((1, 2), (3, 2), (3, 9)):
        test = example(ndim=ndim, resolution=resolution, order=3, batch=3,
                       forcing=True, dtype=np.float32,
                       seed=0)(test)
    return settings(max_examples=40, deadline=None)(given(
        ndim=st.integers(1, 3), resolution=st.integers(2, 9),
        order=st.sampled_from((2, 3)), batch=st.integers(1, 3),
        forcing=st.booleans(),
        dtype=st.sampled_from((np.float32, np.float64)),
        seed=st.integers(0, 2 ** 32 - 1))(test))


def make(ndim, resolution, order, batch, forcing, dtype, seed):
    grid = UniformGrid(ndim, resolution)
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((batch, 1) + grid.shape).astype(dtype)
    nu = np.exp(rng.standard_normal((batch, 1) + grid.shape)).astype(dtype)
    f = rng.standard_normal(grid.shape) if forcing else None
    rule = GaussRule.create(ndim, order)
    return grid, rule, u, nu, f


@problems
def test_value_matches_the_chain(ndim, resolution, order, batch, forcing,
                                 dtype, seed) -> None:
    grid, rule, u, nu, f = make(ndim, resolution, order, batch, forcing,
                                dtype, seed)
    loss = EnergyLoss(grid, rule=rule, forcing=f)
    fused = loss.per_sample(Tensor(u), nu).data
    assert fused.dtype == dtype and fused.shape == (batch,)
    # Compare against the chain in float64: J can cancel to ~0 between its
    # quadratic and linear parts, so the scale is the sum of their sizes.
    u64 = u.astype(np.float64)
    oracle = chain_energy(u64, nu.astype(np.float64), grid, rule, f)
    quadratic = chain_energy(u64, nu.astype(np.float64), grid, rule)
    scale = np.abs(quadratic) + np.abs(oracle - quadratic)
    assert np.all(np.abs(fused - oracle) <= VALUE_RTOL[dtype] * scale)
    if dtype is np.float32:
        chain32 = chain_energy(u, nu, grid, rule, f)
        assert np.all(np.abs(fused - chain32) <= 1e-5 * scale)


@problems
def test_gradient_is_the_residual(ndim, resolution, order, batch, forcing,
                                  dtype, seed) -> None:
    grid, rule, u, nu, f = make(ndim, resolution, order, batch, forcing,
                                np.float64, seed)
    ut = Tensor(u, requires_grad=True)
    EnergyLoss(grid, rule=rule, forcing=f,
               reduction="sum")(ut, nu).backward()
    b = assemble_load(grid, f, rule)
    for i in range(batch):
        ku = StencilOperator(grid, nu[i, 0], rule).matvec(u[i, 0])
        scale = max(np.abs(ku).max(), np.abs(b).max())
        assert np.abs(ut.grad[i, 0].ravel() - (ku - b)).max() \
            <= GRAD_RTOL * scale


@problems
def test_a_sample_does_not_see_its_batch(ndim, resolution, order, batch,
                                         forcing, dtype, seed) -> None:
    grid, rule, u, nu, f = make(ndim, resolution, order, batch, forcing,
                                dtype, seed)
    loss = EnergyLoss(grid, rule=rule, forcing=f)
    ut = Tensor(u, requires_grad=True)
    together = loss.per_sample(ut, nu)
    together.sum().backward()
    for i in range(batch):
        ui = Tensor(u[i:i + 1], requires_grad=True)
        alone = loss.per_sample(ui, nu[i:i + 1])
        alone.sum().backward()
        assert alone.data[0] == together.data[i]
        assert np.array_equal(ui.grad[0], ut.grad[i])


@pytest.mark.parametrize("ndim,resolution,order", [(1, 5, 2), (2, 4, 3),
                                                   (3, 3, 2)])
def test_gradcheck(ndim, resolution, order) -> None:
    grid, rule, u, nu, f = make(ndim, resolution, order, 2, True,
                                np.float64, 7)
    loss = EnergyLoss(grid, rule=rule, forcing=f)
    assert gradcheck(lambda t: loss.per_sample(t, nu),
                     [Tensor(u, requires_grad=True)])


def test_no_grad_skips_the_adjoint_and_keeps_the_value(monkeypatch) -> None:
    """Without a gradient to feed, the op stops after the Gauss-point sum:
    same J bitwise, no ``K u``."""
    from repro.fem import energy as energy_module

    grid, rule, u, nu, f = make(3, 6, 2, 2, True, np.float32, 3)
    loss = EnergyLoss(grid, rule=rule, forcing=f)
    adjoints = []

    def spy(*args, adjoint=True, **kwargs):
        adjoints.append(adjoint)
        return apply_stiffness(*args, adjoint=adjoint, **kwargs)

    monkeypatch.setattr(energy_module, "apply_stiffness", spy)
    taped = loss(Tensor(u, requires_grad=True), nu)
    with no_grad():
        untaped = loss(Tensor(u, requires_grad=True), nu)
    constant = loss(Tensor(u), nu)
    assert adjoints == [True, False, False]
    assert float(taped.data) == float(untaped.data) == float(constant.data)
    assert taped.requires_grad and not untaped.requires_grad
    energy, ku = apply_stiffness(u[:, 0], nu[:, 0], rule, adjoint=False)
    assert ku is None and energy.shape == (2,)


def test_rejects_what_it_cannot_compute() -> None:
    rule = GaussRule.create(2, 2)
    ok = np.ones((1, 4, 4))
    for u, nu in ((np.ones((1, 4, 5)), np.ones((1, 4, 5))),     # not cubic
                  (np.ones((1, 4, 4, 4)), np.ones((1, 4, 4, 4))),  # 3-d field
                  (np.ones((1, 1, 1)), np.ones((1, 1, 1))),     # no element
                  (ok, np.ones((2, 4, 4))),                     # nu mismatch
                  (ok.astype(np.int64), ok)):                   # not floating
        with pytest.raises(ValueError):
            apply_stiffness(u, nu, rule)


# Run in a fresh interpreter that reads its own peak (``VmHWM``, see
# tests/peak_rss.py): this process's peak, or a ``ru_maxrss`` inherited
# from it, would hide the field's.
FIELD_129 = PEAK_MB + """
import numpy as np
from repro.fem import GaussRule
from repro.fem.stencil import apply_stiffness

r = 129
rng = np.random.default_rng(0)
u = rng.standard_normal((1, r, r, r))
nu = np.exp(0.3 * rng.standard_normal((1, r, r, r)))
rule = GaussRule.create(3, 2)
apply_stiffness(u[:, :9, :9, :9], nu[:, :9, :9, :9], rule)   # imports, BLAS
before = peak_mb()
energy, ku = apply_stiffness(u, nu, rule)
grown = peak_mb() - before
# K is symmetric positive semi-definite with constants in its kernel.
assert ku.shape == u.shape and energy[0] > 0
assert abs(0.5 * np.vdot(u, ku) - energy[0]) <= 1e-10 * energy[0]
flat, _ = apply_stiffness(np.ones_like(u), nu, rule)
assert flat[0] <= 1e-20 * energy[0]
print(grown)
"""


@pytest.mark.slow
def test_a_129_cubed_field_fits_in_200_mb() -> None:
    """Matrix-free means it: one 2.1 M-node field goes through with the
    field, ν, ``K u`` and chunk scratch only.  The stored stencil is 27
    float64 coefficients per node, 0.46 GB — this is the residual ROADMAP
    item 3 certifies large fields with."""
    done = subprocess.run([sys.executable, "-c", FIELD_129], text=True,
                          capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert float(done.stdout) <= 200.0
