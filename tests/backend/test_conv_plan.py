"""Planner tests: path selection heuristics, memoization, and numerical
parity between the tensordot and im2col execution engines."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend.conv_plan import (
    IM2COL_MAX_PATCH_BYTES, ConvSignature, clear_plan_cache,
    plan_cache_info, plan_conv, run_conv_forward,
)


@pytest.fixture(autouse=True)
def _fresh_planner():
    clear_plan_cache()
    yield
    clear_plan_cache()


class TestPlanSelection:
    def test_small_kernel_large_channels_picks_im2col(self):
        # The U-Net trunk signature: 3^d kernel, wide channels.
        plan = plan_conv((2, 16, 16, 16), (32, 16, 3, 3), (1, 1), (1, 1),
                         np.float32)
        assert plan.path == "im2col"

    def test_3d_unet_signature_picks_im2col(self):
        plan = plan_conv((1, 8, 6, 6, 6), (16, 8, 3, 3, 3),
                         (1, 1, 1), (1, 1, 1), np.float32)
        assert plan.path == "im2col"

    def test_thin_gemm_rescue_allows_larger_patches(self):
        # Cin=2 per-offset GEMMs are (N*So, 2): pathologically thin, so
        # im2col wins even when the patch matrix exceeds cache.
        plan = plan_conv((4, 2, 128, 128), (8, 2, 3, 3), (1, 1), (1, 1),
                         np.float32)
        assert plan.path == "im2col"

    def test_non_resident_patch_with_wide_gemm_picks_tensordot(self):
        plan = plan_conv((4, 16, 64, 64), (8, 16, 3, 3), (1, 1), (1, 1),
                         np.float32)
        assert plan.path == "tensordot"
        assert "cache-resident" in plan.reason

    def test_pointwise_kernel_picks_tensordot(self):
        plan = plan_conv((2, 64, 16, 16), (32, 64, 1, 1), (1, 1), (0, 0),
                         np.float32)
        assert plan.path == "tensordot"

    def test_single_channel_small_work_picks_tensordot(self):
        # Cin=1 with a 2^d FEM stencil kernel: GEMM too thin for im2col.
        plan = plan_conv((4, 1, 33, 33), (8, 1, 2, 2), (1, 1), (0, 0),
                         np.float64)
        assert plan.path == "tensordot"

    def test_huge_patch_matrix_picks_tensordot(self):
        sig = ConvSignature((8, 64, 256, 256), (64, 64, 3, 3), (1, 1),
                            (1, 1), "<f8")
        assert sig.patch_bytes > IM2COL_MAX_PATCH_BYTES
        plan = plan_conv(sig.x_shape, sig.w_shape, sig.stride, sig.padding,
                         np.float64)
        assert plan.path == "tensordot"
        assert "patch matrix" in plan.reason


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
    """Both engines must produce identical outputs on identical inputs."""

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
    def test_forward_parity(self, x_shape, w_shape, stride, padding,
                            force_conv_path):
        rng = np.random.default_rng(42)
        x = rng.standard_normal(x_shape)
        w = rng.standard_normal(w_shape)
        if any(padding):
            padw = ((0, 0), (0, 0)) + tuple((p, p) for p in padding)
            xp = np.pad(x, padw)
        else:
            xp = x
        out_spatial = tuple(
            (s - k) // st + 1
            for s, k, st in zip(xp.shape[2:], w_shape[2:], stride))

        force_conv_path("tensordot")
        ref = run_conv_forward(plan_conv(x_shape, w_shape, stride, padding,
                                         x.dtype), xp, w, stride, out_spatial)
        force_conv_path("im2col")
        fast = run_conv_forward(plan_conv(x_shape, w_shape, stride, padding,
                                          x.dtype), xp, w, stride, out_spatial)
        np.testing.assert_allclose(fast, ref, rtol=1e-12, atol=1e-12)

    def test_im2col_uses_the_buffer_pool(self, force_conv_path):
        from repro.backend import get_pool

        pool = get_pool()
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 8, 12, 12)).astype(np.float32)
        w = rng.standard_normal((16, 8, 3, 3)).astype(np.float32)
        force_conv_path("im2col")
        plan = plan_conv(x.shape, w.shape, (1, 1), (0, 0), x.dtype)
        out_spatial = (10, 10)
        run_conv_forward(plan, x, w, (1, 1), out_spatial)
        hits_before = pool.stats.hits
        run_conv_forward(plan, x, w, (1, 1), out_spatial)
        assert pool.stats.hits > hits_before
