"""The conv engine against oracles that share no code with it: geometry
memoization, pinned parity cases, a hypothesis sweep of forward / dx / dw
over every supported (dims, channels, kernel, stride, padding, dtype)
combination, and the bound on the scratch the engine leaves in the pool.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.backend import NumpyBackend, get_pool, use_backend
from repro.backend.conv_plan import (
    COLS_CHUNK_BYTES, clear_plan_cache, conv_backward_data,
    conv_backward_weight, conv_forward, plan_cache_info, plan_conv,
)

from tests.conv_oracles import ORACLES, tap_loop, tap_loop_grads


@pytest.fixture(autouse=True)
def _fresh_planner():
    clear_plan_cache()
    yield
    clear_plan_cache()


class TestMemoization:
    def test_plans_are_cached_per_signature(self):
        args = ((2, 8, 16, 16), (16, 8, 3, 3), (1, 1), (1, 1), np.float32)
        first = plan_conv(*args)
        second = plan_conv(*args)
        assert first is second
        info = plan_cache_info()
        assert info["hits"] == 1 and info["misses"] == 1 and info["size"] == 1

    def test_distinct_signatures_get_distinct_plans(self):
        plan_conv((2, 8, 16, 16), (16, 8, 3, 3), (1, 1), (1, 1), np.float32)
        plan_conv((2, 8, 16, 16), (16, 8, 3, 3), (2, 2), (1, 1), np.float32)
        assert plan_cache_info()["size"] == 2


class TestEngineParity:
    """The engine and both oracles produce the same outputs."""

    CASES = [
        # (x_shape, w_shape, stride, padding)
        ((2, 3, 9, 9), (5, 3, 3, 3), (1, 1), (0, 0)),
        ((2, 3, 9, 9), (5, 3, 3, 3), (2, 2), (1, 1)),
        ((1, 4, 8, 8), (6, 4, 2, 2), (2, 2), (0, 0)),
        ((2, 2, 6, 6, 6), (4, 2, 3, 3, 3), (1, 1, 1), (1, 1, 1)),
        ((1, 3, 7, 7, 7), (2, 3, 2, 2, 2), (2, 2, 2), (0, 0, 0)),
        ((2, 4, 10, 8), (3, 4, 3, 2), (2, 1), (1, 0)),  # anisotropic
    ]

    @pytest.mark.parametrize("x_shape,w_shape,stride,padding", CASES)
    def test_forward_parity(self, x_shape, w_shape, stride, padding):
        rng = np.random.default_rng(42)
        x = rng.standard_normal(x_shape)
        w = rng.standard_normal(w_shape)
        out = conv_forward(plan_conv(x_shape, w_shape, stride, padding,
                                     x.dtype), x, w)
        for oracle in ORACLES.values():
            np.testing.assert_allclose(out, oracle(x, w, stride, padding),
                                       rtol=1e-12, atol=1e-12)

    def test_im2col_uses_the_buffer_pool(self):
        """The column matrix and every other scratch of a call come from
        (and return to) the backend's pool."""
        pool = get_pool()
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 8, 12, 12)).astype(np.float32)
        w = rng.standard_normal((16, 8, 3, 3)).astype(np.float32)
        plan = plan_conv(x.shape, w.shape, (1, 1), (0, 0), x.dtype)
        conv_forward(plan, x, w)
        hits_before = pool.stats.hits
        conv_forward(plan, x, w)
        assert pool.stats.hits > hits_before


# --------------------------------------------------------------------- #
@st.composite
def _conv_cases(draw):
    nd = draw(st.integers(1, 3))
    kernel = tuple(draw(st.integers(1, 3)) for _ in range(nd))
    stride = tuple(draw(st.integers(1, 2)) for _ in range(nd))
    padding = tuple(draw(st.integers(0, 1)) for _ in range(nd))
    # Independent (non-cubic) extents, each large enough for one output.
    spatial = tuple(draw(st.integers(max(1, k - 2 * p), 7))
                    for k, p in zip(kernel, padding))
    n, cin, cout = (draw(st.integers(1, 3)), draw(st.integers(1, 9)),
                    draw(st.integers(1, 9)))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    return ((n, cin) + spatial, (cout, cin) + kernel, stride, padding,
            dtype, draw(st.integers(0, 2 ** 31)))


class TestEngineProperty:
    @given(case=_conv_cases())
    @settings(max_examples=150, deadline=None)
    def test_forward_dx_dw_match_the_tap_loop(self, case):
        x_shape, w_shape, stride, padding, dtype, seed = case
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(x_shape).astype(dtype)
        w = rng.standard_normal(w_shape).astype(dtype)
        plan = plan_conv(x_shape, w_shape, stride, padding, dtype)

        out = conv_forward(plan, x, w)
        g = rng.standard_normal(out.shape).astype(dtype)
        dx = conv_backward_data(plan, g, w)
        dw = conv_backward_weight(plan, x, g)

        # The oracle runs in float64 either way: the tolerance is the
        # engine's own rounding, relative to the size of the result.
        x64, w64, g64 = (a.astype(np.float64) for a in (x, w, g))
        ref_dx, ref_dw = tap_loop_grads(x64, w64, g64, stride, padding)
        rel = 1e-5 if dtype is np.float32 else 1e-12
        for name, got, ref in (("out", out, tap_loop(x64, w64, stride,
                                                     padding)),
                               ("dx", dx, ref_dx), ("dw", dw, ref_dw)):
            assert got.shape == ref.shape and got.dtype == dtype, name
            assert got.flags.c_contiguous, name
            assert np.abs(got - ref).max() <= rel * max(1.0, np.abs(ref).max()), name


# --------------------------------------------------------------------- #
class TestScratch:
    """What the engine parks in the pool is bounded by its largest call,
    not by how many distinct layer shapes have run."""

    # (x_shape, w_shape, stride, padding): eight layers of one network-ish
    # size class, every one a distinct signature, the hungriest first.
    LAYERS = [
        ((1, 8, 8, 8, 8), (8, 8, 3, 3, 3), 1, 1),
        ((2, 8, 24, 24), (8, 8, 3, 3), 1, 1),
        ((2, 8, 24, 24), (6, 8, 3, 3), 1, 1),
        ((2, 6, 24, 24), (8, 6, 3, 3), 1, 1),
        ((2, 8, 24, 22), (8, 8, 3, 3), 1, 1),
        ((2, 8, 22, 24), (8, 8, 3, 3), 1, 0),
        ((2, 8, 24, 24), (8, 8, 2, 2), 2, 0),
        ((2, 8, 24, 24), (8, 8, 1, 1), 1, 0),
    ]

    @staticmethod
    def _run(layers):
        rng = np.random.default_rng(0)
        for x_shape, w_shape, stride, padding in layers:
            nd = len(x_shape) - 2
            x = rng.standard_normal(x_shape).astype(np.float32)
            w = rng.standard_normal(w_shape).astype(np.float32)
            plan = plan_conv(x_shape, w_shape, (stride,) * nd,
                             (padding,) * nd, np.float32)
            g = np.ones_like(conv_forward(plan, x, w))
            conv_backward_data(plan, g, w)
            conv_backward_weight(plan, x, g)

    def test_high_water_is_bounded_by_the_largest_call(self):
        # One call's scratch: the padded input and output-side grids plus
        # one column chunk, rounded up to a power of two; buckets of
        # distinct sizes sum to less than twice the largest.
        largest = max(
            (x[1] + w[0]) * x[0] * math.prod(s + 2 * p for s in x[2:]) * 4
            for x, w, _, p in self.LAYERS) + COLS_CHUNK_BYTES
        budget = 4 * largest
        with use_backend(NumpyBackend()):
            self._run(self.LAYERS[:2])
            after_two = get_pool().stats.high_water_bytes
            self._run(self.LAYERS)
            after_eight = get_pool().stats.high_water_bytes
            assert get_pool().stats.hits > 0
        assert 0 < after_two <= after_eight <= budget
        # A per-shape scratch set would have grown 4x from two layers to
        # eight; shared buckets may only add smaller ones.
        assert after_eight < 2 * after_two

    def test_threaded_tiles_equal_serial_across_column_chunks(self):
        """The chunk length is a function of the signature alone, so
        tiles run on two threads stitch the bytes the serial loop does —
        on tiles large enough that every conv spans several chunks."""
        from repro import MGDiffNet, PoissonProblem3D
        from repro.serve import make_executor, tiled_predict

        # Even a halo-less 16^3 tile is several chunks of a 4-channel conv.
        plan = plan_conv((1, 4, 16, 16, 16), (4, 4, 3, 3, 3), (1, 1, 1),
                         (1, 1, 1), np.float32)
        assert 3 * plan.chunk < plan.total
        problem = PoissonProblem3D(32)
        model = MGDiffNet(ndim=3, base_filters=4, depth=1, rng=3)
        omega = np.random.default_rng(4).uniform(-3, 3, size=(1, 4))
        serial = tiled_predict(model, problem, omega, tile=16)
        with make_executor("thread", 2) as executor:
            threaded = tiled_predict(model, problem, omega, tile=16,
                                     executor=executor)
        np.testing.assert_array_equal(threaded, serial)
