"""Power-law fit tests, including the Fig. 2 extrapolation check."""

import numpy as np
import pytest

from repro.perf.fit import fit_power_law, PowerLawFit
from repro.perf.measure import EpochTimePoint


class TestFit:
    def test_exact_power_law_recovered(self):
        x = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
        y = 3.0 * x ** 1.5
        fit = fit_power_law(x, y)
        assert fit.exponent == pytest.approx(1.5, abs=1e-10)
        assert fit.coefficient == pytest.approx(3.0, rel=1e-10)
        assert fit.r_squared == pytest.approx(1.0)

    def test_predict(self):
        fit = PowerLawFit(coefficient=2.0, exponent=2.0, r_squared=1.0)
        assert fit.predict(3.0) == pytest.approx(18.0)
        np.testing.assert_allclose(fit.predict(np.array([1.0, 2.0])),
                                   [2.0, 8.0])

    def test_noisy_data_r2_below_one(self):
        rng = np.random.default_rng(0)
        x = np.linspace(1, 100, 20)
        y = 5 * x ** 1.2 * np.exp(rng.standard_normal(20) * 0.1)
        fit = fit_power_law(x, y)
        assert 0.9 < fit.r_squared < 1.0
        assert fit.exponent == pytest.approx(1.2, abs=0.15)

    def test_epoch_time_points_accepted(self):
        pts = [EpochTimePoint(resolution=r, dofs=r * r,
                              epoch_seconds=0.001 * (r * r) ** 1.1)
               for r in (8, 16, 32, 64)]
        fit = fit_power_law(pts, None)
        assert fit.exponent == pytest.approx(1.1, abs=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_power_law([1.0], [1.0])
        with pytest.raises(ValueError):
            fit_power_law([1.0, -2.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            fit_power_law([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_measured_epoch_times_near_linear_in_dofs(self):
        """The assumption behind the Fig. 9/10 extrapolation: at the
        larger sizes the cost exponent in DoF approaches 1 (voxel-
        proportional FLOPs).  Verified on real measurements."""
        from repro import MGDiffNet, PoissonProblem2D
        from repro.perf import measure_epoch_time

        model = MGDiffNet(ndim=2, base_filters=4, depth=2, rng=0)
        pts = []
        # Sizes where voxel work outweighs the ~5 ms of per-step Python
        # (it no longer does at 16^2 now that the energy loss is one
        # kernel); best of two, a one-shot epoch can absorb a scheduler
        # stall several times its own length.
        for r in (32, 64, 128):
            problem = PoissonProblem2D(r)
            pts.append(min((measure_epoch_time(model, problem, r, n_samples=4,
                                               batch_size=4)
                            for _ in range(2)),
                           key=lambda p: p.epoch_seconds))
        fit = fit_power_law(pts, None)
        # Below 1 would mean sublinear cost in voxels (impossible
        # asymptotically); far above 2 would break the extrapolation.
        assert 0.4 < fit.exponent < 2.0
