"""Early stopping: the convergence criterion of every prolongation visit."""

import pytest

from repro.optim import EarlyStopping


class TestEarlyStopping:
    def test_stops_on_plateau(self):
        es = EarlyStopping(patience=3, min_delta=1e-3)
        stops = [es.update(1.0) for _ in range(4)]
        assert stops == [False, False, False, True]

    def test_improvement_resets_counter(self):
        es = EarlyStopping(patience=2, min_delta=0.0)
        assert not es.update(1.0)
        assert not es.update(1.0)   # count 1
        assert not es.update(0.5)   # improvement resets
        assert not es.update(0.5)   # count 1
        assert es.update(0.5)       # count 2 -> stop

    def test_min_delta_relative(self):
        es = EarlyStopping(patience=1, min_delta=0.1)
        assert not es.update(1.0)
        # 5% improvement < 10% threshold -> counts as plateau.
        assert es.update(0.95)

    def test_min_epochs_respected(self):
        es = EarlyStopping(patience=1, min_epochs=5)
        for i in range(4):
            assert not es.update(1.0)
        assert es.update(1.0)

    def test_best_tracked(self):
        es = EarlyStopping(patience=10)
        es.update(3.0)
        es.update(1.0)
        es.update(2.0)
        assert es.best == 1.0
        assert es.best_epoch == 2

    def test_reset(self):
        es = EarlyStopping(patience=1)
        es.update(1.0)
        es.update(1.0)
        assert es.stopped
        es.reset()
        assert not es.stopped
        assert es.epoch == 0

    def test_invalid_patience(self):
        with pytest.raises(ValueError):
            EarlyStopping(patience=0)
