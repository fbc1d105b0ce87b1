"""Utility tests: seeding, text tables, CSV."""

import numpy as np

from repro.utils import make_rng, spawn_rngs, write_csv, format_table


class TestSeeding:
    def test_make_rng_passthrough(self):
        rng = np.random.default_rng(0)
        assert make_rng(rng) is rng

    def test_make_rng_seeded_deterministic(self):
        assert make_rng(4).integers(1000) == make_rng(4).integers(1000)

    def test_spawn_independent(self):
        rng = np.random.default_rng(1)
        children = spawn_rngs(rng, 3)
        vals = [c.integers(10 ** 9) for c in children]
        assert len(set(vals)) == 3


class TestViz:
    def test_write_csv(self, tmp_path):
        path = write_csv(tmp_path / "sub" / "out.csv", ["a", "b"],
                         [[1, 2], [3, 4]])
        text = path.read_text()
        assert "a,b" in text and "3,4" in text

    def test_format_table(self):
        out = format_table(["name", "value"], [["x", 1.23456], ["yy", 7]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert "name" in lines[0]
        assert "1.235" in out
