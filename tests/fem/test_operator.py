"""The one stiffness operator against two oracles that share no code with it.

``StencilOperator`` builds ``K(nu)`` by slice-adding element tensors into
3^d nodal coefficient arrays.  Over random grids, ν and Gauss orders its
``matvec``, ``diag()`` and ``to_csr()`` must agree to 1e-12 relative with

* a naive dense assembly — a Python loop over elements, Gauss points and
  local nodes written out below, importing nothing from ``repro.fem``; and
* the gradient of the fused ``EnergyLoss`` at ``f = 0`` — the matrix-free
  ``D^T diag(nu w) D u`` of ``fem.stencil.apply_stiffness``, which holds no
  coefficients at all: stored K, naive dense assembly and matrix-free
  ``K u`` check each other.  (The op-by-op chain the fused loss replaced
  is the oracle of ``test_energy_kernel.py``.)

Resolution 2 is in range on purpose: there distinct stencil offsets share
one flat diagonal of the matrix and must be summed.
"""

from __future__ import annotations

from itertools import product

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.autograd import Tensor
from repro.fem import EnergyLoss, GaussRule, UniformGrid
from repro.fem.stencil import StencilOperator

RTOL = 1e-12


def naive_stiffness(ndim: int, res: int, nu: np.ndarray, order: int) -> np.ndarray:
    """Dense ``K`` of ``-div(nu grad u)`` on the unit cube, element by element."""
    h = 1.0 / (res - 1)
    points, weights = np.polynomial.legendre.leggauss(order)
    corners = np.array(list(product((0, 1), repeat=ndim)))
    signs = 2.0 * corners - 1.0
    k = np.zeros((res ** ndim, res ** ndim))
    for elem in product(range(res - 1), repeat=ndim):
        nodes = corners + np.array(elem)
        rows = np.ravel_multi_index(tuple(nodes.T), (res,) * ndim)
        nu_local = nu[tuple(nodes.T)]
        for gp in product(range(order), repeat=ndim):
            factors = 0.5 * (1.0 + signs * points[list(gp)])      # (A, d)
            shape = factors.prod(axis=1)
            grad = np.stack([0.5 * signs[:, j]
                             * np.delete(factors, j, axis=1).prod(axis=1)
                             for j in range(ndim)], axis=1) * (2.0 / h)
            scale = weights[list(gp)].prod() * (h / 2.0) ** ndim
            k[np.ix_(rows, rows)] += scale * (shape @ nu_local) * grad @ grad.T
    return k


def autograd_matvec(grid: UniformGrid, nu: np.ndarray, rule: GaussRule,
                    v: np.ndarray) -> np.ndarray:
    """``K v`` as the gradient of ``1/2 B(u, u)`` at ``u = v``: the fused
    loss saves the matrix-free ``K u`` in its forward."""
    u = Tensor(v.reshape(grid.shape)[None, None], requires_grad=True,
               dtype=np.float64)
    EnergyLoss(grid, rule=rule, reduction="sum")(u, nu[None, None]).backward()
    return u.grad[0, 0].ravel()


def assert_close(actual, expected, scale=None) -> None:
    scale = np.abs(expected).max() if scale is None else scale
    assert np.abs(actual - expected).max() <= RTOL * scale


def problems(test):
    """Random (ndim, resolution, Gauss order, seed), plus the corners:
    resolution 2 in 2D/3D (shared diagonals) and the largest 3D grid."""
    for ndim, resolution in ((2, 2), (3, 2), (3, 9)):
        test = example(ndim=ndim, resolution=resolution, order=3, seed=0)(test)
    return settings(max_examples=30, deadline=None)(given(
        ndim=st.integers(1, 3), resolution=st.integers(2, 9),
        order=st.sampled_from((2, 3)), seed=st.integers(0, 2 ** 32 - 1))(test))


def make(ndim: int, resolution: int, order: int, seed: int):
    grid = UniformGrid(ndim, resolution)
    rng = np.random.default_rng(seed)
    nu = np.exp(rng.standard_normal(grid.shape))
    return grid, nu, GaussRule.create(ndim, order), rng


@problems
def test_matches_a_naive_dense_assembly(ndim, resolution, order, seed) -> None:
    grid, nu, rule, rng = make(ndim, resolution, order, seed)
    op = StencilOperator(grid, nu, rule)
    k = naive_stiffness(ndim, resolution, nu, order)
    v = rng.standard_normal(grid.num_nodes)
    assert op.shape == k.shape
    assert_close(op.to_csr().toarray(), k)
    assert_close(op.diag(), np.diag(k))
    assert_close(op.matvec(v), k @ v)
    assert np.array_equal(op @ v, op.matvec(v))


@problems
def test_matches_the_energy_gradient(ndim, resolution, order, seed) -> None:
    grid, nu, rule, rng = make(ndim, resolution, order, seed)
    v = rng.standard_normal(grid.num_nodes)
    assert_close(StencilOperator(grid, nu, rule).matvec(v),
                 autograd_matvec(grid, nu, rule, v))


@problems
def test_symmetric_with_constants_in_the_nullspace(ndim, resolution, order,
                                                   seed) -> None:
    grid, nu, rule, _ = make(ndim, resolution, order, seed)
    k = StencilOperator(grid, nu, rule).to_csr()
    largest = abs(k).max()
    assert abs(k - k.T).max() <= RTOL * largest
    assert_close(k @ np.ones(grid.num_nodes), 0.0, scale=largest)
