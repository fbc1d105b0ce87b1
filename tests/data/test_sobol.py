"""Sobol sampler: agreement with scipy.qmc, determinism, uniformity."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data import SobolSampler, sample_omega


class TestAgainstScipy:
    @pytest.mark.parametrize("dim", [1, 2, 4, 6])
    def test_matches_scipy_exactly(self, dim):
        ours = sample_omega(128, m=dim, omega_range=(0.0, 1.0), skip=0,
                            engine="own")
        ref = sample_omega(128, m=dim, omega_range=(0.0, 1.0), skip=0,
                           engine="scipy")
        np.testing.assert_array_equal(ours, ref)

    def test_skip_matches_fast_forward(self):
        ours = sample_omega(32, m=4, omega_range=(0.0, 1.0), skip=5,
                            engine="own")
        ref = sample_omega(32, m=4, omega_range=(0.0, 1.0), skip=5,
                           engine="scipy")
        np.testing.assert_array_equal(ours, ref)


class TestSampler:
    def test_deterministic(self):
        a = SobolSampler(4).sample(16)
        b = SobolSampler(4).sample(16)
        np.testing.assert_array_equal(a, b)

    def test_streaming_equals_batch(self):
        s = SobolSampler(3)
        chunks = np.concatenate([s.sample(5), s.sample(7), s.sample(4)])
        batch = SobolSampler(3).sample(16)
        np.testing.assert_array_equal(chunks, batch)

    def test_range(self):
        pts = SobolSampler(4).sample(256)
        assert pts.min() >= 0.0 and pts.max() < 1.0

    def test_uniformity_first_dim(self):
        """Mean of a balanced Sobol block approaches 1/2 closely."""
        pts = SobolSampler(4, skip=0).sample(256)
        np.testing.assert_allclose(pts.mean(axis=0), 0.5, atol=0.01)

    def test_dimension_bounds(self):
        with pytest.raises(ValueError):
            SobolSampler(0)
        with pytest.raises(ValueError):
            SobolSampler(99)


class TestOmegaSampling:
    def test_range_box(self):
        om = sample_omega(512, m=4, omega_range=(-3.0, 3.0))
        assert om.shape == (512, 4)
        assert om.min() >= -3.0 and om.max() <= 3.0

    def test_unknown_engine(self):
        with pytest.raises(ValueError):
            sample_omega(4, engine="mystery")

    @given(n=st.integers(1, 64), m=st.integers(1, 6))
    @settings(max_examples=20, deadline=None)
    def test_shapes_property(self, n, m):
        om = sample_omega(n, m=m)
        assert om.shape == (n, m)
        assert np.isfinite(om).all()
