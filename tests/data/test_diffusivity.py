"""Eq. 10 diffusivity family tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data import LogPermeabilityField, DEFAULT_A
from repro.fem import UniformGrid


class TestConstants:
    def test_paper_a_values(self):
        assert DEFAULT_A == (1.72, 4.05, 6.85, 9.82)

    def test_lambda_formula(self):
        f = LogPermeabilityField(2)
        expected = 1.0 / (1.0 + 0.25 * np.asarray(DEFAULT_A) ** 2)
        np.testing.assert_allclose(f.lambdas, expected)

    def test_lambdas_monotonically_decreasing(self):
        f = LogPermeabilityField(2)
        lam = f.lambdas
        assert np.all(np.diff(lam) < 0)


class TestEvaluation:
    def test_positivity(self):
        f = LogPermeabilityField(2)
        grid = UniformGrid(2, 17)
        rng = np.random.default_rng(0)
        for _ in range(5):
            omega = rng.uniform(-3, 3, 4)
            assert f.evaluate(omega, grid).min() > 0

    def test_zero_omega_gives_unity(self):
        f = LogPermeabilityField(2)
        grid = UniformGrid(2, 9)
        np.testing.assert_allclose(f.evaluate(np.zeros(4), grid), 1.0)

    def test_linearity_of_log_in_omega(self):
        f = LogPermeabilityField(2)
        grid = UniformGrid(2, 9)
        rng = np.random.default_rng(1)
        w1, w2 = rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 4)
        lhs = f.log_nu(w1 + w2, grid)
        rhs = f.log_nu(w1, grid) + f.log_nu(w2, grid)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_separable_structure_2d(self):
        """log nu(x, y) for a single mode factorizes as xi(x) * eta(y)."""
        f = LogPermeabilityField(2, a=(1.72,))
        grid = UniformGrid(2, 9)
        omega = np.array([2.0])
        ln = f.log_nu(omega, grid)
        # Rank-1 check via SVD.
        s = np.linalg.svd(ln, compute_uv=False)
        assert s[1] / s[0] < 1e-12

    def test_mode_functional_form(self):
        """xi(t) = (a/2) cos(a t) + sin(a t) at t=0 gives a/2."""
        f = LogPermeabilityField(1, a=(4.0,))
        grid = UniformGrid(1, 5)
        omega = np.array([1.0])
        lam = f.lambdas[0]
        val = f.log_nu(omega, grid)[0]
        assert val == pytest.approx(lam * (4.0 / 2.0), rel=1e-12)

    def test_3d_tensor_product_extension(self):
        """3D log-field equals xi(x) eta(y) zeta(z) per mode."""
        f3 = LogPermeabilityField(3, a=(1.72,))
        grid = UniformGrid(3, 5)
        ln = f3.log_nu(np.array([1.0]), grid)
        f1 = LogPermeabilityField(1, a=(1.72,))
        g1 = UniformGrid(1, 5)
        m = f1.log_nu(np.array([1.0]), g1) / f1.lambdas[0]
        expected = f1.lambdas[0] * np.einsum("i,j,k->ijk", m, m, m)
        np.testing.assert_allclose(ln, expected, atol=1e-12)

    @pytest.mark.parametrize("ndim", [1, 2, 3])
    def test_matches_materialised_basis(self, ndim):
        """The per-mode ordered sum equals the (m, R**ndim) tensor-product
        basis contraction (kept here as the reference)."""
        f = LogPermeabilityField(ndim)
        grid = UniformGrid(ndim, 7)
        omegas = np.random.default_rng(ndim).uniform(-3, 3, (3, f.m))
        mode = f._modes(grid)
        basis = mode
        for _ in range(ndim - 1):
            basis = basis[..., None] * mode.reshape(
                (f.m,) + (1,) * (basis.ndim - 1) + (-1,))
        expected = np.tensordot(omegas * f.lambdas, basis, axes=([1], [0]))
        got = f.log_nu(omegas, grid)
        assert got.shape == (3,) + grid.shape
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
        np.testing.assert_allclose(f.log_nu(omegas[1], grid), got[1],
                                   rtol=0, atol=1e-14)

    def test_batch_matches_single(self):
        f = LogPermeabilityField(2)
        grid = UniformGrid(2, 9)
        rng = np.random.default_rng(2)
        omegas = rng.uniform(-3, 3, (4, 4))
        batch = f.evaluate_batch(omegas, grid, dtype=np.float64)
        for i in range(4):
            np.testing.assert_allclose(batch[i, 0], f.evaluate(omegas[i], grid),
                                       rtol=1e-12)

    def test_log_transform_batch(self):
        f = LogPermeabilityField(2)
        grid = UniformGrid(2, 9)
        omegas = np.array([[1.0, 0.0, 0.0, 0.0]])
        raw = f.evaluate_batch(omegas, grid, dtype=np.float64, log=False)
        logf = f.evaluate_batch(omegas, grid, dtype=np.float64, log=True)
        np.testing.assert_allclose(np.exp(logf), raw, rtol=1e-12)

    def test_validation(self):
        f = LogPermeabilityField(2)
        with pytest.raises(ValueError):
            f.log_nu(np.zeros(4), UniformGrid(3, 5))
        with pytest.raises(ValueError):
            f.log_nu(np.zeros(3), UniformGrid(2, 5))
        with pytest.raises(ValueError):
            LogPermeabilityField(5)


@st.composite
def _box_cases(draw):
    ndim = draw(st.sampled_from([2, 3]))
    # Large enough that the whole field and a box split their rows into
    # different chunks (~16 K nodes each).
    res = draw(st.integers(2, 200 if ndim == 2 else 40))
    box = []
    for _ in range(ndim):
        start = draw(st.one_of(st.just(0), st.integers(0, res - 1)))
        stop = draw(st.one_of(st.just(res), st.integers(start + 1, res)))
        box.append((start, stop))
    return ndim, res, tuple(box), draw(st.integers(1, 3)), draw(
        st.integers(0, 2 ** 31))


class TestBoxes:
    """Tiled inference evaluates its input block by block: a box must be
    the whole field's slice bit for bit, not to a tolerance."""

    @given(case=_box_cases())
    @settings(max_examples=100, deadline=None)
    def test_a_box_is_bitwise_the_whole_fields_slice(self, case):
        ndim, res, box, batch, seed = case
        f = LogPermeabilityField(ndim)
        grid = UniformGrid(ndim, res)
        omegas = np.random.default_rng(seed).uniform(-3, 3, (batch, f.m))
        whole = f.log_nu(omegas, grid)
        got = f.log_nu(omegas, grid, box)
        np.testing.assert_array_equal(
            got, whole[(slice(None),) + tuple(slice(a, b) for a, b in box)])
        np.testing.assert_array_equal(f.log_nu(omegas[0], grid, box), got[0])

    def test_the_whole_box_is_the_default(self):
        f = LogPermeabilityField(3)
        grid = UniformGrid(3, 9)
        omega = np.array([0.3, 1.5, 0.1, -1.2])
        np.testing.assert_array_equal(
            f.log_nu(omega, grid, ((0, 9),) * 3), f.log_nu(omega, grid))
