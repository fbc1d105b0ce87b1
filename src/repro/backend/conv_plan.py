"""Planning conv engine: choose *how* to execute each convolution.

The N-d convolution dominates every epoch (``bench_fig2_epoch_time``),
and the best execution strategy depends on the (shape, kernel, stride)
signature:

* **per-offset tensordot** — ``k^d`` GEMMs of shape ``(N*So, Cin) @
  (Cin, Cout)``; peak memory stays O(input).  Wins for big kernels, tiny
  channel counts and megavoxel fields where the patch matrix would not
  fit.
* **im2col/GEMM** — one patch-matrix copy followed by a single
  ``(N*So, Cin*k^d) @ (Cin*k^d, Cout)`` GEMM.  Wins for the small-kernel
  /many-channel signatures of the U-Net trunk, where ``k^d`` separate
  thin GEMMs leave BLAS underfed.

``plan_conv`` maps a :class:`ConvSignature` to a :class:`ConvPlan` once
and memoizes it, so the per-call planning cost in the training loop is a
dict lookup.  The im2col scratch (the one large short-lived buffer) comes
from the active backend's :class:`~repro.backend.pool.BufferPool`.

The engine is a function of the signature alone: one network mixes both
(the benchmark has a workload on each side of the choice), so there is
no switch that forces one globally.  The parity tests drive both engines
over identical inputs by substituting ``_decide``.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from itertools import product

import numpy as np

from .registry import get_backend, ops as B

__all__ = [
    "ConvSignature", "ConvPlan", "plan_conv", "clear_plan_cache",
    "plan_cache_info", "run_conv_forward", "run_conv_backward",
    "ConvTransposePlan", "plan_conv_transpose",
    "run_conv_transpose_forward", "run_conv_transpose_backward",
]

# Heuristic thresholds (see _decide): taps = prod(kernel).
IM2COL_MAX_TAPS = 64            # above: too many offsets, patch blows up
IM2COL_MIN_GEMM_COLS = 16       # below: Cin*taps GEMM too thin to pay for the copy
IM2COL_THIN_GEMM_COLS = 32      # at/below: per-offset GEMMs are so thin that
#                                 im2col wins even for non-resident patches
IM2COL_CACHE_PATCH_BYTES = 384 << 10  # patch must stay cache-resident (384 KiB)
#                                     unless the thin-GEMM rescue applies
IM2COL_MAX_PATCH_BYTES = 1 << 28    # 256 MiB absolute patch-matrix ceiling

_CACHE_LOCK = threading.Lock()
_PLAN_CACHE: dict[object, "ConvPlan"] = {}
_cache_hits = 0
_cache_misses = 0


def clear_plan_cache() -> None:
    global _cache_hits, _cache_misses
    with _CACHE_LOCK:
        _PLAN_CACHE.clear()
        _cache_hits = _cache_misses = 0


def plan_cache_info() -> dict[str, int]:
    with _CACHE_LOCK:
        return {"hits": _cache_hits, "misses": _cache_misses,
                "size": len(_PLAN_CACHE)}


# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class ConvSignature:
    """Everything the planner needs to know about one conv call."""

    x_shape: tuple[int, ...]      # unpadded input (N, Cin, *spatial)
    w_shape: tuple[int, ...]      # (Cout, Cin, *kernel)
    stride: tuple[int, ...]
    padding: tuple[int, ...]
    dtype: str

    @property
    def kernel(self) -> tuple[int, ...]:
        return self.w_shape[2:]

    @property
    def taps(self) -> int:
        return math.prod(self.kernel)

    @property
    def padded_spatial(self) -> tuple[int, ...]:
        return tuple(s + 2 * p for s, p in zip(self.x_shape[2:], self.padding))

    @property
    def out_spatial(self) -> tuple[int, ...]:
        return tuple((s - k) // st + 1 for s, k, st in
                     zip(self.padded_spatial, self.kernel, self.stride))

    @property
    def patch_bytes(self) -> int:
        n, cin = self.x_shape[0], self.w_shape[1]
        itemsize = np.dtype(self.dtype).itemsize
        return n * math.prod(self.out_spatial) * cin * self.taps * itemsize


@dataclass(frozen=True)
class ConvPlan:
    """A memoized execution decision for one conv signature; ``path``
    drives both the forward and the backward pass."""

    signature: ConvSignature
    path: str                     # 'im2col' | 'tensordot'
    reason: str


def _decide(sig: ConvSignature) -> tuple[str, str]:
    """The planner: ``(path, reason)`` from the signature alone."""
    taps = sig.taps
    cin = sig.w_shape[1]
    if taps == 1:
        return "tensordot", "1x1 kernel is already a single GEMM"
    if taps > IM2COL_MAX_TAPS:
        return "tensordot", f"kernel taps {taps} > {IM2COL_MAX_TAPS}"
    if cin * taps < IM2COL_MIN_GEMM_COLS:
        return "tensordot", (
            f"GEMM width Cin*taps={cin * taps} < {IM2COL_MIN_GEMM_COLS}")
    if sig.patch_bytes > IM2COL_MAX_PATCH_BYTES:
        return "tensordot", (
            f"patch matrix {sig.patch_bytes >> 20} MiB exceeds ceiling")
    if (sig.patch_bytes > IM2COL_CACHE_PATCH_BYTES
            and cin * taps > IM2COL_THIN_GEMM_COLS):
        # The patch copy leaves cache and the per-offset GEMMs are wide
        # enough to feed BLAS — the copy would be pure overhead.
        return "tensordot", (
            f"patch matrix {sig.patch_bytes >> 10} KiB not cache-resident "
            f"and GEMM width {cin * taps} is BLAS-friendly")
    return "im2col", (
        f"small kernel ({taps} taps), GEMM width {cin * taps}, "
        f"patch {sig.patch_bytes >> 10} KiB")


def plan_conv(x_shape, w_shape, stride, padding, dtype) -> ConvPlan:
    """Return the (memoized) execution plan for a conv signature."""
    global _cache_hits, _cache_misses
    sig = ConvSignature(tuple(x_shape), tuple(w_shape), tuple(stride),
                        tuple(padding), np.dtype(dtype).str)
    with _CACHE_LOCK:
        plan = _PLAN_CACHE.get(sig)
        if plan is not None:
            _cache_hits += 1
            return plan
        _cache_misses += 1
    path, reason = _decide(sig)
    plan = ConvPlan(signature=sig, path=path, reason=reason)
    with _CACHE_LOCK:
        _PLAN_CACHE[sig] = plan
    return plan


# --------------------------------------------------------------------- #
# Execution engines.  ``xp`` is the already-padded input (N, Cin, *Sp);
# both engines return the channels-first output (N, Cout, *So) and must
# agree numerically (asserted by the parity tests).
# --------------------------------------------------------------------- #

def _offset_slices(offset, out_spatial, stride):
    return tuple(slice(o, o + (so - 1) * st + 1, st)
                 for o, so, st in zip(offset, out_spatial, stride))


def _forward_tensordot(xp, w, stride, out_spatial):
    n = xp.shape[0]
    cout = w.shape[0]
    kernel = w.shape[2:]
    # Accumulate in channels-last layout so each offset is one GEMM.
    acc = B.zeros((n, *out_spatial, cout), dtype=xp.dtype)
    for offset in product(*(range(k) for k in kernel)):
        sl = _offset_slices(offset, out_spatial, stride)
        xs = xp[(slice(None), slice(None)) + sl]        # (N, Cin, *So)
        wo = w[(slice(None), slice(None)) + offset]      # (Cout, Cin)
        acc += B.tensordot(xs, wo, axes=([1], [1]))      # (N, *So, Cout)
    return B.moveaxis(acc, -1, 1)


def _strided_windows(xp, kernel, stride, nd):
    """Strided window view (N, Cin, *So, *K) of the padded input."""
    win = B.sliding_window_view(xp, kernel, axis=tuple(range(2, 2 + nd)))
    if any(st > 1 for st in stride):
        win = win[(slice(None), slice(None))
                  + tuple(slice(None, None, st) for st in stride)]
    return win


def _forward_im2col(xp, w, stride, out_spatial):
    nd = xp.ndim - 2
    n, cin = xp.shape[:2]
    cout = w.shape[0]
    kernel = w.shape[2:]
    taps = math.prod(kernel)
    win = _strided_windows(xp, kernel, stride, nd)
    # (N, *So, Cin, *K): one contiguous copy into a pooled patch matrix.
    perm = (0,) + tuple(range(2, 2 + nd)) + (1,) + tuple(range(2 + nd, 2 + 2 * nd))
    patches = win.transpose(perm)
    rows = n * math.prod(out_spatial)
    cols = cin * taps
    pool = get_backend().pool
    mat = pool.acquire((rows, cols), xp.dtype)
    B.copyto(mat.reshape(patches.shape), patches)
    out = B.matmul(mat, w.reshape(cout, cols).T)         # (rows, Cout)
    pool.release(mat)
    return B.moveaxis(out.reshape((n,) + tuple(out_spatial) + (cout,)), -1, 1)


def run_conv_forward(plan: ConvPlan, xp, w, stride, out_spatial):
    """Execute the planned forward pass on a padded input."""
    if plan.path == "im2col":
        return _forward_im2col(xp, w, stride, out_spatial)
    return _forward_tensordot(xp, w, stride, out_spatial)


# --------------------------------------------------------------------- #
def _backward_tensordot(xp, w, gmoved, stride, out_spatial):
    nd = len(out_spatial)
    kernel = w.shape[2:]
    dxp = B.zeros_like(xp)
    dw = B.zeros_like(w)
    contract_axes = [0] + list(range(1, 1 + nd))          # N + spatial of gmoved
    xs_axes = [0] + list(range(2, 2 + nd))                # N + spatial of xs
    for offset in product(*(range(k) for k in kernel)):
        sl = _offset_slices(offset, out_spatial, stride)
        idx = (slice(None), slice(None)) + sl
        xs = xp[idx]
        wo = w[(slice(None), slice(None)) + offset]
        dw[(slice(None), slice(None)) + offset] = B.tensordot(
            gmoved, xs, axes=(contract_axes, xs_axes))
        dxs = B.tensordot(gmoved, wo, axes=([nd + 1], [0]))
        dxp[idx] += B.moveaxis(dxs, -1, 1)
    return dxp, dw


def _backward_im2col(xp, w, gmoved, stride, out_spatial):
    nd = len(out_spatial)
    n, cin = xp.shape[:2]
    cout = w.shape[0]
    kernel = w.shape[2:]
    taps = math.prod(kernel)
    rows = n * math.prod(out_spatial)
    cols = cin * taps
    win = _strided_windows(xp, kernel, stride, nd)        # (N, Cin, *So, *K)

    # dW in one contraction over batch+spatial — the im2col GEMM of the
    # backward pass (tensordot materializes the patch matrix internally).
    dw = B.tensordot(
        gmoved, win,
        axes=(tuple(range(0, 1 + nd)), (0,) + tuple(range(2, 2 + nd)))
    ).reshape(w.shape)                                    # (Cout, Cin, *K)

    # dX: one big GEMM into a pooled column buffer, then col2im scatter.
    pool = get_backend().pool
    dcols = pool.acquire((rows, cols), xp.dtype)
    B.matmul(gmoved.reshape(rows, cout), w.reshape(cout, cols), out=dcols)
    dpat = B.moveaxis(
        dcols.reshape((n,) + tuple(out_spatial) + (cin,) + tuple(kernel)),
        1 + nd, 1)                                        # (N, Cin, *So, *K)
    dxp = B.zeros_like(xp)
    for offset in product(*(range(k) for k in kernel)):
        sl = _offset_slices(offset, out_spatial, stride)
        dxp[(slice(None), slice(None)) + sl] += dpat[
            (slice(None), slice(None)) + (slice(None),) * nd + offset]
    pool.release(dcols)
    return dxp, dw


def run_conv_backward(plan: ConvPlan, xp, w, gmoved, stride, out_spatial):
    """Execute the planned backward pass; returns ``(dxp, dw)``."""
    if plan.path == "im2col":
        return _backward_im2col(xp, w, gmoved, stride, out_spatial)
    return _backward_tensordot(xp, w, gmoved, stride, out_spatial)


# --------------------------------------------------------------------- #
# Transposed convolution: output-scatter GEMM plan.
#
# The composed path (zero-stuff by the stride, pad, flip, stride-1 conv)
# materializes a zero-stuffed input ~stride^d times the original and
# then convolves mostly-zero data.  The scatter plan skips it entirely:
# contract input channels against the whole kernel once (or per tap),
# then scatter-add each tap's contribution into the output at offset
# slices of step ``stride`` — writes touch exactly the nonzero work.
# The composition survives only as the parity reference
# (``repro.autograd.ops_conv.conv_transpose_nd_composed``).
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class ConvTransposePlan:
    """Memoized execution decision for one conv-transpose signature.

    ``path`` selects how the channel contraction is staged:

    * ``'gemm'`` — one ``tensordot(x, w)`` over Cin producing the full
      ``(N, *S, Cout, *K)`` tap tensor, then k^d scatter-adds.  Fastest
      when the tap tensor fits comfortably in memory.
    * ``'tap'``  — k^d thin per-tap GEMMs, O(input) peak memory; the
      megavoxel-safe choice when the tap tensor would exceed the same
      patch ceiling the im2col planner respects.
    """

    x_shape: tuple[int, ...]
    w_shape: tuple[int, ...]
    stride: tuple[int, ...]
    padding: tuple[int, ...]
    output_padding: tuple[int, ...]
    path: str
    reason: str


def plan_conv_transpose(x_shape, w_shape, stride, padding, output_padding,
                        dtype) -> ConvTransposePlan:
    """Return the (memoized) scatter plan for a conv-transpose call."""
    global _cache_hits, _cache_misses
    key = ("convT", tuple(x_shape), tuple(w_shape), tuple(stride),
           tuple(padding), tuple(output_padding), np.dtype(dtype).str)
    with _CACHE_LOCK:
        plan = _PLAN_CACHE.get(key)
        if plan is not None:
            _cache_hits += 1
            return plan
        _cache_misses += 1
    n = x_shape[0]
    cout = w_shape[1]
    taps = math.prod(w_shape[2:])
    tap_bytes = (n * math.prod(x_shape[2:]) * cout * taps
                 * np.dtype(dtype).itemsize)
    if tap_bytes > IM2COL_MAX_PATCH_BYTES:
        path, reason = "tap", (
            f"tap tensor {tap_bytes >> 20} MiB exceeds patch ceiling")
    else:
        path, reason = "gemm", (
            f"tap tensor {tap_bytes >> 10} KiB, single contraction")
    plan = ConvTransposePlan(
        x_shape=tuple(x_shape), w_shape=tuple(w_shape),
        stride=tuple(stride), padding=tuple(padding),
        output_padding=tuple(output_padding), path=path, reason=reason)
    with _CACHE_LOCK:
        _PLAN_CACHE[key] = plan
    return plan


def _convt_full_spatial(plan: ConvTransposePlan) -> tuple[int, ...]:
    """Scatter extent before the padding crop: (S-1)*st + k + op."""
    return tuple((s - 1) * st + k + op for s, st, k, op in zip(
        plan.x_shape[2:], plan.stride, plan.w_shape[2:],
        plan.output_padding))


def _convt_scatter_slices(offset, spatial, stride):
    """Output slices hit by one kernel tap: start=offset, step=stride."""
    return tuple(slice(o, o + (s - 1) * st + 1, st)
                 for o, s, st in zip(offset, spatial, stride))


def run_conv_transpose_forward(plan: ConvTransposePlan, x, w):
    """Output-scatter transposed convolution: returns (N, Cout, *So).

    ``x`` is (N, Cin, *S), ``w`` is (Cin, Cout, *K).  No zero-stuffed
    intermediate exists at any point.
    """
    from .lazy.graph import realize

    x, w = realize(x), realize(w)
    nd = x.ndim - 2
    n = x.shape[0]
    cout = w.shape[1]
    kernel = w.shape[2:]
    spatial = x.shape[2:]
    full = _convt_full_spatial(plan)
    # Accumulate channels-last so each tap scatter is one strided block.
    acc = np.zeros((n,) + full + (cout,), dtype=x.dtype)
    if plan.path == "gemm":
        cols = realize(B.tensordot(x, w, axes=([1], [0])))
        # cols: (N, *S, Cout, *K)
        for offset in product(*(range(k) for k in kernel)):
            sl = _convt_scatter_slices(offset, spatial, plan.stride)
            acc[(slice(None),) + sl] += cols[(Ellipsis,) + offset]
    else:
        for offset in product(*(range(k) for k in kernel)):
            wo = w[(slice(None), slice(None)) + offset]     # (Cin, Cout)
            tap = realize(B.tensordot(x, wo, axes=([1], [0])))
            sl = _convt_scatter_slices(offset, spatial, plan.stride)
            acc[(slice(None),) + sl] += tap                  # (N, *S, Cout)
    out = np.moveaxis(acc, -1, 1)
    crop = tuple(slice(p, fs - p) for p, fs in zip(plan.padding, full))
    return np.ascontiguousarray(out[(slice(None), slice(None)) + crop])


def run_conv_transpose_backward(plan: ConvTransposePlan, x, w, grad):
    """Gradients of the scatter forward; returns ``(dx, dw)``.

    The data gradient of a transposed convolution is a *forward*
    convolution of the (re-padded) output gradient with the same weights
    — so it reuses the planned conv engines.  The weight gradient is one
    contraction of the input against strided windows of the padded
    gradient.
    """
    from .lazy.graph import realize

    x, w, grad = realize(x), realize(w), realize(grad)
    nd = x.ndim - 2
    kernel = w.shape[2:]
    spatial = x.shape[2:]
    if any(plan.padding):
        padw = ((0, 0), (0, 0)) + tuple((p, p) for p in plan.padding)
        gp = np.pad(grad, padw)
    else:
        gp = grad
    # dx: conv of gp with w (layout (Cin, Cout, *K) is exactly the conv
    # weight layout with Cout_conv = Cin), same stride, zero padding.
    conv_plan_ = plan_conv(gp.shape, w.shape, plan.stride,
                           (0,) * nd, grad.dtype)
    dx = realize(run_conv_forward(conv_plan_, gp, w, plan.stride, spatial))
    # dw[ci, co, o] = sum_{n,i} x[n,ci,i] * gp[n,co, st*i + o].
    win = _strided_windows(gp, kernel, plan.stride, nd)  # (N, Cout, *S, *K)
    axes = ((0,) + tuple(range(2, 2 + nd)),
            (0,) + tuple(range(2, 2 + nd)))
    dw = realize(B.tensordot(x, win, axes=axes))         # (Cin, Cout, *K)
    return dx, dw
