"""Field resampling between training resolutions."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.multigrid import resample_linear


@pytest.fixture
def rng():
    return np.random.default_rng(66)


class TestResample:
    def test_identity_when_same_size(self, rng):
        f = rng.standard_normal((8, 8))
        np.testing.assert_array_equal(resample_linear(f, 8), f)

    def test_endpoints_preserved(self, rng):
        f = rng.standard_normal(9)
        out = resample_linear(f, 5)
        assert out[0] == pytest.approx(f[0])
        assert out[-1] == pytest.approx(f[-1])

    def test_exact_on_linear_fields(self):
        x = np.linspace(0, 1, 16)
        f = np.add.outer(2 * x, 3 * x)
        up = resample_linear(f, 32)
        xx = np.linspace(0, 1, 32)
        np.testing.assert_allclose(up, np.add.outer(2 * xx, 3 * xx), atol=1e-12)

    def test_constant_preserved_any_size(self, rng):
        f = np.full((7, 7), 4.2)
        for n in (3, 5, 13, 20):
            np.testing.assert_allclose(resample_linear(f, n), 4.2)

    def test_batched_spatial_axes(self, rng):
        f = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
        out = resample_linear(f, 4, spatial_axes=(2, 3))
        assert out.shape == (2, 3, 4, 4)
        assert out.dtype == np.float32

    def test_3d(self, rng):
        f = rng.standard_normal((8, 8, 8))
        assert resample_linear(f, 16).shape == (16, 16, 16)

    def test_too_small_raises(self):
        with pytest.raises(ValueError):
            resample_linear(np.zeros(1), 4)

    def test_restrict_then_prolong_close_on_smooth(self):
        x = np.linspace(0, 1, 32)
        f = np.sin(np.pi * np.add.outer(x, x))
        roundtrip = resample_linear(resample_linear(f, 16), 32)
        assert np.abs(roundtrip - f).max() < 0.05

    @given(n=st.sampled_from([8, 16, 32]))
    @settings(max_examples=10, deadline=None)
    def test_value_range_never_expands(self, n):
        """Linear interpolation cannot create new extrema."""
        rng = np.random.default_rng(n)
        f = rng.standard_normal((n, n))
        out = resample_linear(f, n // 2)
        assert out.min() >= f.min() - 1e-12
        assert out.max() <= f.max() + 1e-12
