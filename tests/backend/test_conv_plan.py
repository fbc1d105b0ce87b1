"""The conv engine against oracles that share no code with it: geometry
memoization, pinned parity cases, a hypothesis sweep of forward / dx / dw
over every supported (dims, channels, kernel, stride, padding, dtype)
combination — kernels to 5 (mixed per axis), strides to 3 on either side
of the kernel, padding to 2 — once with the shipped chunk budget and once
with one small enough that the run views straddle chunk boundaries; the
one-tap-run signatures (1x1, ``k == s``, strided last axis) pinned by
digest to the results they had before runs existed; the bias / LeakyReLU
epilogue against the ops applied afterwards, bit for bit; and the bound
on the scratch the engine leaves in the pool.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.backend import NumpyBackend, conv_plan, get_pool, use_backend
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
    kernel = tuple(draw(st.integers(1, 5)) for _ in range(nd))
    stride = tuple(draw(st.integers(1, 3)) for _ in range(nd))
    padding = tuple(draw(st.integers(0, 2)) for _ in range(nd))
    spatial = tuple(draw(st.integers(max(1, k - 2 * p), 9))
                    for k, p in zip(kernel, padding))
    n, cin, cout = (draw(st.integers(1, 3)), draw(st.integers(1, 5)),
                    draw(st.integers(1, 5)))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    return ((n, cin) + spatial, (cout, cin) + kernel, stride, padding,
            dtype, draw(st.integers(0, 2 ** 31)))


def _check_against_the_tap_loop(case) -> None:
    x_shape, w_shape, stride, padding, dtype, seed = case
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(x_shape).astype(dtype)
    w = rng.standard_normal(w_shape).astype(dtype)
    plan = plan_conv(x_shape, w_shape, stride, padding, dtype)
    assert plan.run == (w_shape[-1] if stride[-1] == 1 else 1)

    out = conv_forward(plan, x, w)
    g = rng.standard_normal(out.shape).astype(dtype)
    dx = conv_backward_data(plan, g, w)
    dw = conv_backward_weight(plan, x, g)

    x64, w64, g64 = (a.astype(np.float64) for a in (x, w, g))
    ref_dx, ref_dw = tap_loop_grads(x64, w64, g64, stride, padding)
    rel = 1e-5 if dtype is np.float32 else 1e-12
    for name, got, ref in (("out", out, tap_loop(x64, w64, stride, padding)),
                           ("dx", dx, ref_dx), ("dw", dw, ref_dw)):
        assert got.shape == ref.shape and got.dtype == dtype, name
        assert got.flags.c_contiguous, name
        assert np.abs(got - ref).max() <= rel * max(1.0, np.abs(ref).max()), name


class TestEngineProperty:
    @given(case=_conv_cases())
    @settings(max_examples=150, deadline=None)
    def test_forward_dx_dw_match_the_tap_loop(self, case):
        _check_against_the_tap_loop(case)

    @given(case=_conv_cases())
    @settings(max_examples=60, deadline=None)
    def test_across_chunk_boundaries(self, case):
        """A chunk budget of one byte leaves ``MIN_CHUNK_COLS`` columns,
        shrunk too: every call with more than a few outputs spans chunks
        whose run views straddle the boundaries."""
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(conv_plan, "COLS_CHUNK_BYTES", 1)
            patch.setattr(conv_plan, "MIN_CHUNK_COLS", 7)
            clear_plan_cache()
            _check_against_the_tap_loop(case)

    def test_a_small_budget_spans_three_chunks(self, monkeypatch):
        monkeypatch.setattr(conv_plan, "COLS_CHUNK_BYTES", 16 << 10)
        case = ((2, 4, 20, 20, 20), (4, 4, 3, 3, 3), (1, 1, 1), (1, 1, 1),
                np.float32, 5)
        plan = plan_conv(*case[:5])
        assert plan.run == 3 and len(plan.blocks) == 9
        assert 3 * plan.chunk < plan.total and 3 * plan.back_chunk < plan.total
        _check_against_the_tap_loop(case)

    def test_chunk_bytes_count_every_scratch_row(self):
        """Copied rows plus the stacked partial products fit the budget
        the per-tap copies had: the chunk got longer, not bigger."""
        plan = plan_conv((4, 4, 32, 32, 32), (4, 4, 3, 3, 3), (1, 1, 1),
                         (1, 1, 1), np.float32)
        rows = sum(r for _, r, _ in plan.blocks) + plan.run * 4
        assert rows == 9 * 4 + 3 * 4
        assert rows * plan.chunk * 4 <= conv_plan.COLS_CHUNK_BYTES


class _UnwrittenIsNaN:
    """``numpy`` as the engine sees it, but ``empty`` fills with NaN: an
    element of a result the engine does not write reads NaN."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def empty(shape, dtype=float):
        return np.full(shape, np.nan, dtype)


class TestInputGradientCoverage:
    """``conv_backward_data`` allocates ``dx`` uninitialised: the phase
    copies write every element they cover, and the plan zeroes the rest."""

    def test_kernel_1_stride_2_is_zero_where_no_tap_reads(self):
        rng = np.random.default_rng(3)
        w = rng.standard_normal((3, 2, 1, 1))
        g = rng.standard_normal((1, 3, 4, 4))
        plan = plan_conv((1, 2, 8, 8), w.shape, (2, 2), (0, 0), np.float64)
        assert plan.uncovered == ((1, 3, 5, 7), (1, 3, 5, 7))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(conv_plan, "np", _UnwrittenIsNaN())
            dx = conv_backward_data(plan, g, w)
        assert (dx[:, :, 1::2] == 0).all() and (dx[:, :, :, 1::2] == 0).all()
        np.testing.assert_allclose(
            dx[:, :, ::2, ::2], np.einsum("nohw,oc->nchw", g, w[:, :, 0, 0]),
            rtol=1e-12)

    @pytest.mark.parametrize("w_shape, stride, padding", [
        ((4, 4, 3, 3, 3), (1, 1, 1), (1, 1, 1)),      # MGDiffNet's convs
        ((4, 4, 2, 2, 2), (2, 2, 2), (0, 0, 0)),      # its 2x down/up
    ])
    def test_the_networks_convs_cover_every_input(self, w_shape, stride,
                                                  padding):
        plan = plan_conv((1, 4, 8, 8, 8), w_shape, stride, padding,
                         np.float32)
        assert plan.uncovered == ((), (), ())

    @given(case=_conv_cases())
    @settings(max_examples=60, deadline=None)
    def test_no_element_is_left_unwritten(self, case):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(conv_plan, "np", _UnwrittenIsNaN())
            _check_against_the_tap_loop(case)


# --------------------------------------------------------------------- #
def _digest(x_shape, w_shape, stride, padding, dtype) -> str:
    """SHA-256 over forward, dx and dw.  Inputs are multiples of 1/8 so
    every product and partial sum is exact: the digest pins the values
    and their layout, not one BLAS's summation order."""
    rng = np.random.default_rng(23)
    x = (rng.integers(-8, 9, x_shape) / 8).astype(dtype)
    w = (rng.integers(-8, 9, w_shape) / 8).astype(dtype)
    plan = plan_conv(x_shape, w_shape, stride, padding, dtype)
    assert plan.run == 1
    out = conv_forward(plan, x, w)
    g = (rng.integers(-8, 9, out.shape) / 8).astype(dtype)
    digest = hashlib.sha256()
    for a in (out, conv_backward_data(plan, g, w),
              conv_backward_weight(plan, x, g)):
        digest.update(a.tobytes())
    return digest.hexdigest()


class TestOneTapRuns:
    """Recorded at commit e17ef53, before the engine knew about runs."""

    PINNED = [
        ((2, 4, 12, 12, 12), (6, 4, 2, 2, 2), (2, 2, 2), (0, 0, 0), np.float32,
         "24d7cd1fead805ae3711f83b704a6cd4b97287915c60b64a973348deb8e3fe3e"),
        ((3, 5, 20, 20), (7, 5, 1, 1), (1, 1), (0, 0), np.float32,
         "130c76ff93d8214f7395885f8078d51d3b4b7948caaee3ddd526bed89ca0f265"),
        ((2, 3, 11, 13), (4, 3, 3, 3), (2, 2), (1, 1), np.float64,
         "cabe3b5c1b05d00e4b172f7cfe7f64d591b4cee7a8c43f5043006fed8bbd287e"),
    ]

    @pytest.mark.parametrize("x_shape,w_shape,stride,padding,dtype,sha",
                             PINNED)
    def test_results_are_the_pinned_ones(self, x_shape, w_shape, stride,
                                         padding, dtype, sha):
        assert _digest(x_shape, w_shape, stride, padding, dtype) == sha

    def test_the_view_cases_still_copy_nothing(self):
        for x_shape, w_shape, stride in [
                ((1, 8, 16, 16, 16), (8, 8, 2, 2, 2), (2, 2, 2)),
                ((2, 4, 16, 16), (1, 4, 1, 1), (1, 1))]:
            plan = plan_conv(x_shape, w_shape, stride, (0,) * len(stride),
                             np.float32)
            assert plan.run == 1 and len(plan.blocks) == 1

    def test_the_chunk_is_the_per_tap_one(self):
        """With one tap per run nothing is stacked, so the chunk — and
        with it every GEMM's shape — is what per-tap copies gave."""
        plan = plan_conv((2, 3, 30, 30), (4, 3, 3, 3), (2, 2), (1, 1),
                         np.float32)
        assert plan.chunk == max(
            conv_plan.MIN_CHUNK_COLS,
            conv_plan.COLS_CHUNK_BYTES // (9 * 3 * 4))


# --------------------------------------------------------------------- #
class TestEpilogue:
    @pytest.mark.parametrize("slope", [None, 0.0, 0.01, 0.2, 1.0, 1.5, -0.5])
    @pytest.mark.parametrize("x_shape,w_shape,stride,padding", [
        ((2, 3, 9, 9), (5, 3, 3, 3), (1, 1), (1, 1)),
        ((1, 2, 6, 7, 8), (4, 2, 3, 3, 3), (1, 1, 1), (1, 1, 1)),
        ((2, 4, 8, 8), (3, 4, 2, 2), (2, 2), (0, 0)),          # one-tap runs
    ])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_bias_add_then_leaky_relu(self, x_shape, w_shape, stride,
                                             padding, dtype, slope):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(x_shape).astype(dtype)
        w = rng.standard_normal(w_shape).astype(dtype)
        b = rng.standard_normal(w_shape[0]).astype(dtype)
        plan = plan_conv(x_shape, w_shape, stride, padding, dtype)
        ref = conv_forward(plan, x, w) + b.reshape((1, -1) + (1,) * len(stride))
        if slope is not None:
            ref = np.where(ref > 0, ref, slope * ref)
        got = conv_forward(plan, x, w, b, slope)
        assert got.dtype == dtype
        np.testing.assert_array_equal(got, ref)

    def test_slope_without_bias(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((2, 3, 10, 10)).astype(np.float32)
        w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
        plan = plan_conv(x.shape, w.shape, (1, 1), (1, 1), np.float32)
        ref = conv_forward(plan, x, w)
        np.testing.assert_array_equal(
            conv_forward(plan, x, w, slope=0.1),
            np.where(ref > 0, ref, np.float32(0.1) * ref))

    def test_the_op_refuses_a_fused_activation_on_the_tape(self):
        from repro.autograd import Tensor, conv_nd, no_grad

        x = Tensor(np.ones((1, 2, 6, 6), np.float32))
        w = Tensor(np.ones((3, 2, 3, 3), np.float32), requires_grad=True)
        with pytest.raises(ValueError, match="no backward"):
            conv_nd(x, w, padding=1, negative_slope=0.01)
        with no_grad():
            out = conv_nd(x, w, padding=1, negative_slope=0.01)
        assert out.shape == (1, 3, 6, 6) and not out.requires_grad


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

    def test_the_pool_keeps_one_arena_the_size_of_the_largest_call(
            self, monkeypatch):
        """Every call carves its scratch from one per-thread arena, so
        after the eight layers the pool holds exactly one buffer, no
        larger than the largest call's scratch rounded up to whole pages
        (power-of-two buckets per size class held 1.5-2x that)."""
        from repro.backend.pool import ARENA_ALIGN

        requests = []
        scratch = conv_plan._scratch

        def spy(dtype, *sizes):
            requests.append(sum(sizes) * np.dtype(dtype).itemsize)
            return scratch(dtype, *sizes)

        monkeypatch.setattr(conv_plan, "_scratch", spy)
        with use_backend(NumpyBackend()):
            self._run(self.LAYERS)
            stats = get_pool().stats
        assert len(requests) == 3 * len(self.LAYERS)
        largest = -(-max(requests) // ARENA_ALIGN) * ARENA_ALIGN
        assert stats.bytes_pooled == stats.high_water_bytes <= largest
        assert stats.hits >= len(requests) - 3

    def test_threaded_tiles_equal_serial_across_column_chunks(
            self, monkeypatch):
        """The chunk length is a function of the signature alone, so
        tiles run on two threads stitch the bytes the serial loop does —
        on tiles large enough that every conv spans several chunks."""
        from repro import MGDiffNet, PoissonProblem3D
        from repro.serve import make_executor, tiled_predict

        # A quarter of the chunk budget: even a halo-less 16^3 tile is
        # several chunks of a 4-channel conv.
        monkeypatch.setattr(conv_plan, "COLS_CHUNK_BYTES",
                            COLS_CHUNK_BYTES // 4)
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
