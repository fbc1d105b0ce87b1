"""UniformGrid tests."""

import pytest

from repro.fem import UniformGrid


class TestBasics:
    def test_counts(self):
        g = UniformGrid(2, 5)
        assert g.num_nodes == 25
        assert g.shape == (5, 5)
        assert g.element_shape == (4, 4)

    def test_spacing(self):
        assert UniformGrid(3, 11).h == pytest.approx(0.1)

    def test_coordinates_range(self):
        g = UniformGrid(2, 4)
        X, Y = g.coordinates()
        assert X.min() == 0.0 and X.max() == 1.0
        assert X.shape == g.shape

    def test_invalid(self):
        with pytest.raises(ValueError):
            UniformGrid(0, 5)
        with pytest.raises(ValueError):
            UniformGrid(2, 1)


class TestMasks:
    def test_face_mask_counts(self):
        g = UniformGrid(2, 5)
        assert g.face_mask(0, 0).sum() == 5
        assert g.face_mask(1, 1).sum() == 5

    def test_face_mask_location(self):
        g = UniformGrid(2, 4)
        m = g.face_mask(0, 0)
        assert m[0].all() and not m[1:].any()


class TestHierarchy:
    def test_coarsen_halves_the_elements(self):
        g = UniformGrid(2, 9)
        assert g.coarsen().resolution == 5

    def test_cannot_coarsen_even_elements(self):
        assert not UniformGrid(2, 4).can_coarsen()  # 3 elements, odd
        assert UniformGrid(2, 5).can_coarsen()

    def test_coarsen_invalid_raises(self):
        with pytest.raises(ValueError):
            UniformGrid(2, 4).coarsen()
