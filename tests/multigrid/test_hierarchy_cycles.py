"""Hierarchy and cycle-schedule tests (paper Fig. 3)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.multigrid import (GridHierarchy, CycleStep, cycle_levels,
                             build_schedule, STRATEGIES)


class TestHierarchy:
    def test_resolutions(self):
        h = GridHierarchy(64, 3)
        assert [h.resolution(lv) for lv in (1, 2, 3)] == [64, 32, 16]
        assert h.coarsest_resolution == 16

    def test_indivisible_raises(self):
        with pytest.raises(ValueError):
            GridHierarchy(50, 3)  # 50 % 4 != 0

    def test_min_resolution_guard(self):
        with pytest.raises(ValueError):
            GridHierarchy(16, 3, min_resolution=8)  # coarsest 4 < 8

    def test_coarsest_level_is_a_multiple_of_min_resolution(self):
        with pytest.raises(ValueError, match="not a multiple of 8"):
            GridHierarchy(24, 2, min_resolution=8)  # coarsest 12

    def test_level_bounds(self):
        h = GridHierarchy(32, 2)
        with pytest.raises(ValueError):
            h.resolution(0)
        with pytest.raises(ValueError):
            h.resolution(3)

    def test_single_level(self):
        h = GridHierarchy(16, 1)
        assert h.resolution(1) == h.coarsest_resolution == 16


class TestCycleSequences:
    """Exact visit orders for the shapes in paper Fig. 3."""

    def test_v_3_levels(self):
        assert cycle_levels("v", 3) == [1, 2, 3, 2, 1]

    def test_v_4_levels(self):
        assert cycle_levels("v", 4) == [1, 2, 3, 4, 3, 2, 1]

    def test_half_v(self):
        assert cycle_levels("half_v", 3) == [3, 2, 1]
        assert cycle_levels("half_v", 4) == [4, 3, 2, 1]

    def test_w_3_levels(self):
        assert cycle_levels("w", 3) == [1, 2, 3, 2, 3, 2, 1]

    def test_w_2_levels(self):
        assert cycle_levels("w", 2) == [1, 2, 2, 1] or \
            cycle_levels("w", 2) == [1, 2, 1]

    def test_f_4_levels_dips_to_coarsest(self):
        seq = cycle_levels("f", 4)
        assert seq[0] == 1 and seq[-1] == 1
        assert seq.count(4) >= 2  # extra coarsest visits vs V

    def test_strategy_aliases(self):
        assert cycle_levels("V Cycle", 3) == cycle_levels("v", 3)
        assert cycle_levels("Half-V", 3) == cycle_levels("half_v", 3)

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            cycle_levels("zigzag", 3)

    def test_single_level_degenerates(self):
        for s in STRATEGIES:
            assert cycle_levels(s, 1) == [1]

    @given(strategy=st.sampled_from(STRATEGIES), levels=st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_adjacent_visits_differ_by_one(self, strategy, levels):
        """All cycles move one level at a time (restriction/prolongation
        act between adjacent grids)."""
        seq = cycle_levels(strategy, levels)
        for a, b in zip(seq, seq[1:]):
            assert abs(a - b) == 1

    @given(strategy=st.sampled_from(STRATEGIES), levels=st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_visits_every_level_and_ends_finest(self, strategy, levels):
        seq = cycle_levels(strategy, levels)
        assert set(seq) == set(range(1, levels + 1))
        assert seq[-1] == 1  # training finishes at the finest resolution
        assert max(seq) == levels


class TestSchedule:
    def test_last_visit_is_prolongation(self):
        for strategy in STRATEGIES:
            sched = build_schedule(strategy, 4)
            last = {}
            for step in sched:
                last[step.level] = step.phase
            assert all(phase == "prolongation" for phase in last.values())

    def test_v_cycle_phases(self):
        sched = build_schedule("v", 3)
        phases = [(s.level, s.phase) for s in sched]
        assert phases == [
            (1, "restriction"), (2, "restriction"), (3, "prolongation"),
            (2, "prolongation"), (1, "prolongation")]

    def test_half_v_all_prolongation(self):
        sched = build_schedule("half_v", 4)
        assert all(s.phase == "prolongation" for s in sched)

    def test_w_cycle_intermediate_restrictions(self):
        sched = build_schedule("w", 3)
        # Early visits to levels 2 and 3 must be restriction phases.
        assert sched[1] == CycleStep(2, "restriction")
        assert sched[2] == CycleStep(3, "restriction")

    def test_invalid_phase_raises(self):
        with pytest.raises(ValueError):
            CycleStep(1, "smoothing")
