"""VTK writer/reader tests."""

import numpy as np
import pytest

from repro.utils.vtk import write_vti

from tests.vti_reader import read_vti


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestRoundtrip:
    def test_2d_field(self, rng, tmp_path):
        u = rng.standard_normal((9, 9))
        path = write_vti(tmp_path / "u.vti", {"u": u})
        fields, spacing = read_vti(path)
        np.testing.assert_allclose(fields["u"], u, atol=1e-14)
        assert spacing == pytest.approx(1.0 / 8)

    def test_3d_field(self, rng, tmp_path):
        u = rng.standard_normal((5, 5, 5))
        path = write_vti(tmp_path / "u.vti", {"u": u})
        fields, _ = read_vti(path)
        np.testing.assert_allclose(fields["u"], u, atol=1e-14)

    def test_multiple_fields(self, rng, tmp_path):
        u = rng.standard_normal((6, 6))
        nu = np.exp(rng.standard_normal((6, 6)))
        path = write_vti(tmp_path / "both.vti", {"u": u, "nu": nu})
        fields, _ = read_vti(path)
        np.testing.assert_allclose(fields["u"], u, atol=1e-14)
        np.testing.assert_allclose(fields["nu"], nu, atol=1e-14)

    def test_orientation_preserved(self, tmp_path):
        """A field varying only along x must come back the same way —
        catches axis-order mistakes in the VTK x-fastest convention."""
        x = np.linspace(0, 1, 7)
        u = np.broadcast_to(x[:, None], (7, 7)).copy()
        fields, _ = read_vti(write_vti(tmp_path / "x.vti", {"u": u}))
        np.testing.assert_allclose(fields["u"], u, atol=1e-14)
        assert fields["u"][0, 0] != fields["u"][-1, 0]


class TestFileFormat:
    def test_compression_used(self, rng, tmp_path):
        """Constant fields compress far below raw size (zlib works)."""
        u = np.ones((64, 64))
        path = write_vti(tmp_path / "c.vti", {"u": u})
        assert path.stat().st_size < u.nbytes / 10

    def test_header_declares_zlib(self, rng, tmp_path):
        path = write_vti(tmp_path / "h.vti", {"u": np.zeros((4, 4))})
        text = path.read_text()
        assert "vtkZLibDataCompressor" in text
        assert "ImageData" in text

    def test_custom_spacing(self, tmp_path):
        path = write_vti(tmp_path / "s.vti", {"u": np.zeros((4, 4))},
                         spacing=0.25)
        _, spacing = read_vti(path)
        assert spacing == pytest.approx(0.25)

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            write_vti(tmp_path / "e.vti", {})
        with pytest.raises(ValueError):
            write_vti(tmp_path / "e.vti",
                      {"a": np.zeros((3, 3)), "b": np.zeros((4, 4))})
        with pytest.raises(ValueError):
            write_vti(tmp_path / "e.vti", {"a": np.zeros(5)})

    def test_creates_parent_dirs(self, tmp_path):
        path = write_vti(tmp_path / "deep" / "dir" / "u.vti",
                         {"u": np.zeros((3, 3))})
        assert path.exists()


class TestIntegrationWithSolver:
    def test_export_fem_solution(self, tmp_path):
        from repro import PoissonProblem2D

        problem = PoissonProblem2D(9)
        u = problem.fem_solve(np.zeros(4))
        nu = problem.nu(np.zeros(4))
        path = write_vti(tmp_path / "solution.vti", {"u": u, "nu": nu},
                         spacing=problem.grid().h)
        fields, spacing = read_vti(path)
        np.testing.assert_allclose(fields["u"], u, atol=1e-14)
        assert spacing == pytest.approx(problem.grid().h)
