"""PoissonProblem tests: mask algebra, caching, FEM reference."""

import numpy as np
import pytest

from repro import PoissonProblem2D, PoissonProblem3D
from repro.core.problem import PoissonProblem


class TestConstruction:
    def test_2d_3d_helpers(self):
        assert PoissonProblem2D(16).ndim == 2
        assert PoissonProblem3D(8).ndim == 3

    def test_invalid_ndim(self):
        with pytest.raises(ValueError):
            PoissonProblem(4, 16)

    def test_repr(self):
        assert "2d" in repr(PoissonProblem2D(16))


class TestCaching:
    def test_grid_cache(self):
        p = PoissonProblem2D(16)
        assert p.grid() is p.grid(16)
        assert p.grid(8) is p.grid(8)
        assert p.grid(8) is not p.grid(16)

    def test_energy_cache_by_reduction(self):
        p = PoissonProblem2D(16)
        assert p.energy(8) is p.energy(8)
        assert p.energy(8, "sum") is not p.energy(8, "mean")

    def test_masks_cache_by_dtype(self):
        p = PoissonProblem2D(16)
        a, _ = p.masks(8, dtype=np.float32)
        b, _ = p.masks(8, dtype=np.float32)
        c, _ = p.masks(8, dtype=np.float64)
        assert a is b
        assert a.dtype == np.float32 and c.dtype == np.float64


class TestMasks:
    @pytest.mark.parametrize("res", [8, 16])
    def test_partition_of_unity(self, res):
        p = PoissonProblem2D(16)
        chi_int, _ = p.masks(res)
        bc = p.bc(res)
        np.testing.assert_allclose(
            chi_int[0, 0] + bc.mask, 1.0)

    def test_u_bc_values(self):
        p = PoissonProblem2D(16)
        _, u_bc = p.masks(16)
        assert np.all(u_bc[0, 0, 0] == 1.0)    # x = 0 face
        assert np.all(u_bc[0, 0, -1] == 0.0)   # x = 1 face
        assert np.all(u_bc[0, 0, 1:-1] == 0.0)  # interior

    @pytest.mark.parametrize("make, shape", [
        (PoissonProblem2D, (1, 1, 8, 1)), (PoissonProblem3D, (1, 1, 8, 1, 1))])
    def test_masks_are_profiles_along_x(self, make, shape):
        chi_int, u_bc = make(8).masks()
        assert chi_int.shape == u_bc.shape == shape

    @pytest.mark.parametrize("make", [PoissonProblem2D, PoissonProblem3D])
    @pytest.mark.parametrize("res", [2, 5, 8, 17])
    def test_profiles_broadcast_to_the_dirichlet_bc(self, make, res):
        p = make(16)
        chi_int, u_bc = p.masks(res, dtype=np.float64)
        assert not p._bcs          # built without the whole-grid BC
        bc = p.bc(res)
        np.testing.assert_array_equal(
            np.broadcast_to(chi_int[0, 0], bc.mask.shape),
            bc.interior_indicator())
        np.testing.assert_array_equal(
            np.broadcast_to(u_bc[0, 0], bc.mask.shape), bc.lift())


class TestFEMReference:
    def test_constant_nu_linear(self):
        p = PoissonProblem2D(17)
        u = p.fem_solve(np.zeros(4))  # omega=0 -> nu=1
        x = p.grid().coordinates()[0]
        np.testing.assert_allclose(u, 1 - x, atol=1e-9)

    def test_nu_positive(self):
        p = PoissonProblem2D(9)
        nu = p.nu(np.array([1.0, -2.0, 0.5, 3.0]))
        assert nu.min() > 0

    def test_fem_solve_at_other_resolution(self):
        p = PoissonProblem2D(16)
        u = p.fem_solve(np.zeros(4), resolution=8)
        assert u.shape == (8, 8)

    def test_make_dataset(self):
        p = PoissonProblem2D(16)
        ds = p.make_dataset(6)
        assert len(ds) == 6
        assert ds.ndim == 2
