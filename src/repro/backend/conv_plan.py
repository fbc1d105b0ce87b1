"""The convolution engine: tap-run column matrix -> GEMM, channels first.

There is one engine, three primitives — :func:`conv_forward`,
:func:`conv_backward_data`, :func:`conv_backward_weight` — and every
N-d convolution and transposed convolution of the network runs through
them; a fourth, :func:`conv_energy`, is the FEM energy (below).  All
work on one flat layout:

* **The phase grid.**  The zero-padded input batch is copied once into
  channel-major scratch ``src (R*Cin, N*cells)``: one block of ``Cin``
  rows per *phase* (the residue of a kernel tap modulo the stride — one
  phase at stride 1, ``s**d`` at ``k == s``: space-to-depth), each row
  the flattened ``(N, *grid)`` samples of that phase, where ``grid =
  out_spatial + (kernel - 1) // stride`` is the output grid plus the
  halo the taps reach into.  An input given as channel parts (the
  decoder's up-sampled map and its skip) is copied part by part into
  the rows its concatenation would fill, so that concatenation is never
  built.
* **Tap rows.**  On that grid kernel tap ``t`` is a *flat shift*: output
  column ``q`` reads ``src[phase_t rows, q + shift_t]``.  The ``v`` taps
  along a stride-1 last axis read the *same* rows at shifts ``s, s+1,
  ..., s+v-1`` — a *run* — so a chunk of ``m`` columns copies one row
  block of ``m + v - 1`` columns per run, ``cols (R*Cin, m+v-1)`` for
  ``R = T/v`` runs (9 blocks, not 27, for a k3 3-D conv), and the taps
  of a run are column-shifted views of it.  No gather, no transpose;
  where the runs already lie side by side in ``src`` (1x1 kernels, ``k
  == s`` down-sampling) ``cols`` is a view of ``src``.  A strided last
  axis has ``v = 1``: the same loop, each tap its own run.
* **One GEMM per chunk.**  The weights are stacked by tap-in-run, ``P
  (v*Cout, R*Cin)``, so ``P @ cols`` holds tap ``i``'s partial product
  in row group ``i`` and ``out[:, q:q+m]`` is the sum of the groups at
  column offsets ``0 .. v-1``: one GEMM and ``v - 1`` shifted adds (with
  ``v = 1`` the GEMM lands in ``out``), then the optional per-channel
  bias and LeakyReLU on the chunk while it is in cache, all in
  channels-first memory.  The data gradient is the same loop run phase
  by phase over the zero-embedded output gradient (a run's taps in
  reverse, since their shifts descend), scattered back through the
  inverse of the input copy; the weight gradient reads the same ``cols``,
  ``dW_i += g[:, q:q+m] @ cols[:, i:i+m].T`` per tap-in-run ``i``.
  Columns whose grid position lies in the halo are computed and dropped
  by the final crop (1.05–1.13x over-compute at the U-Net's sizes).

A transposed convolution is the adjoint of the convolution with the same
weights, stride and padding, so it has no engine of its own: its forward
is :func:`conv_backward_data`, its data gradient :func:`conv_forward`,
its weight gradient :func:`conv_backward_weight` with input and gradient
swapped.

The FEM energy is a quadratic form in a fixed-stencil convolution ``W``
of the one-channel nodal field, ``1/2 <Wx, c o Wx>`` with ``c`` a second
fixed-stencil convolution of the coefficient field, and its gradient is
``W^T (c o Wx)``.  :func:`conv_energy` evaluates both *chunk by chunk* on
the same grid and tap shifts — tap rows of ``x`` and of the coefficient,
two GEMMs, an in-place scale, a float64-accumulated sum, the transposed
GEMM and one shifted add per tap — so the ``(N, Cout, *So)`` array ``Wx``
that the three primitives would materialise (24 channels for trilinear
elements) never exists.

``plan_conv`` memoizes the *geometry* of a :class:`ConvSignature` (grid,
phases, runs and their shifts, chunk length), so steady-state training
pays a dict lookup.  The chunk length is a function of the signature
alone — never of pool state or thread count — and counts every scratch
row a chunk holds (copied rows plus the ``v*Cout`` partial products), so
tiled, threaded, multi-process and sharded runs stay bitwise equal to
serial ones and a chunk's bytes do not depend on ``v``.  All scratch of one call
is carved from the calling thread's arena in the active backend's
:class:`~repro.backend.pool.BufferPool`, which grows to the thread's
largest call: what the engine retains is one arena per thread, as large
as that call, however many layer shapes have run.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import accumulate, product

import numpy as np

from .registry import get_backend

__all__ = [
    "ConvSignature", "ConvPlan", "plan_conv", "clear_plan_cache",
    "plan_cache_info", "conv_forward", "conv_backward_data",
    "conv_backward_weight", "conv_energy",
]

# One chunk of the column matrix should stay in L2 between the tap copies
# that write it and the GEMM that reads it, and a thin layer's GEMM should
# stay below the size at which the BLAS fans it over threads (waking them
# costs more than a sub-0.1 ms GEMM): measured, copy-bound layers (Cout
# <= 8) run 2-3x slower once a chunk passes ~1 MiB.  GEMM-bound wide
# layers want enough columns per call instead, hence the floor.
COLS_CHUNK_BYTES = 768 << 10
MIN_CHUNK_COLS = 512

_CACHE_LOCK = threading.Lock()
_PLAN_CACHE: dict["ConvSignature", "ConvPlan"] = {}
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
    """Everything the geometry of one conv call depends on."""

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


# A copied row block of the column matrix: ``src[row:row + rows, shift + q]``.
Block = tuple[int, int, int]
Index = tuple[slice, ...]


@dataclass(frozen=True)
class ConvPlan:
    """Memoized geometry of one conv signature (module docstring)."""

    signature: ConvSignature
    out_shape: tuple[int, ...]    # (N, Cout, *out_spatial)
    grid: tuple[int, ...]         # per-sample phase grid: out + tap halo
    total: int                    # columns of the flat layout: N * prod(grid)
    # Indices below address ``(C, N, *spatial)`` arrays.
    valid: Index                  # where on the grid the outputs sit
    # Per phase: (index into the unpadded input, index into the grid) —
    # the zero-padding and the space-to-depth split as one strided copy.
    phases: tuple[tuple[Index, Index], ...]
    dense: bool                   # the phase copies cover the whole grid
    # Per spatial axis, the input indices no phase reads: dx is 0 there.
    uncovered: tuple[tuple[int, ...], ...]
    lead: int                     # the largest flat tap shift
    run: int                      # v: unit-shift taps read from one block
    blocks: tuple[Block, ...]     # cols of the input, one block per run
    # Per phase: (its taps, run by run in the order their views ascend;
    # cols of the lead-embedded output gradient, one block per run).
    back: tuple[tuple[tuple[int, ...], tuple[Block, ...]], ...]
    chunk: int                    # columns per chunk, forward / weight
    back_chunk: int               # columns per chunk, data gradient


def _chunk_cols(rows: int, itemsize: int) -> int:
    return max(MIN_CHUNK_COLS, COLS_CHUNK_BYTES // (rows * itemsize))


def _merge(blocks: list[Block]) -> tuple[Block, ...]:
    """Fuse row-adjacent blocks with equal shifts: one copy, or — when a
    single block remains — no copy at all."""
    merged = [blocks[0]]
    for row, rows, shift in blocks[1:]:
        last_row, last_rows, last_shift = merged[-1]
        if shift == last_shift and row == last_row + last_rows:
            merged[-1] = (last_row, last_rows + rows, shift)
        else:
            merged.append((row, rows, shift))
    return tuple(merged)


def _geometry(sig: ConvSignature) -> ConvPlan:
    n, cin = sig.x_shape[:2]
    cout = sig.w_shape[0]
    out_spatial = sig.out_spatial
    grid = tuple(so + (k - 1) // st for so, k, st in
                 zip(out_spatial, sig.kernel, sig.stride))
    pitch = [math.prod(grid[i + 1:]) for i in range(len(grid))]
    every = (slice(None), slice(None))                  # channels, samples
    phase_of: dict[tuple[int, ...], int] = {}
    taps = []                                           # (phase, flat shift)
    for offset in product(*(range(k) for k in sig.kernel)):
        residue = tuple(o % st for o, st in zip(offset, sig.stride))
        taps.append((phase_of.setdefault(residue, len(phase_of)),
                     sum(o // st * pt for o, st, pt in
                         zip(offset, sig.stride, pitch))))
    phases = []
    for residue in phase_of:
        x_sl, g_sl = [], []
        for r, st, p, s, g in zip(residue, sig.stride, sig.padding,
                                  sig.x_shape[2:], grid):
            # Grid index i of this phase sits at padded coordinate
            # r + st*i; keep those inside the unpadded input [p, p + s).
            lo = max(0, -((r - p) // st))
            hi = max(lo, min(g, -((r - p - s) // st)))
            start = r + st * lo - p
            x_sl.append(slice(start, start + (hi - lo) * st, st))
            g_sl.append(slice(lo, hi))
        phases.append((every + tuple(x_sl), every + tuple(g_sl)))
    lead = taps[-1][1]
    # The taps along a stride-1 last axis share a phase and sit at flat
    # shifts s, s+1, ..., s+v-1: one run, one copied block.
    v = sig.kernel[-1] if sig.stride[-1] == 1 else 1
    runs = taps[::v]
    by_phase = [tuple(r for r, (ph, _) in enumerate(runs) if ph == phase)
                for phase in range(len(phases))]
    itemsize = np.dtype(sig.dtype).itemsize
    # A chunk holds its copied rows plus, when the GEMM cannot land in
    # the output (v > 1), v stacked partial products per output row.
    stacked = (v > 1) * v
    return ConvPlan(
        signature=sig, out_shape=(n, cout) + out_spatial, grid=grid,
        total=n * math.prod(grid),
        valid=every + tuple(slice(0, so) for so in out_spatial),
        phases=tuple(phases),
        dense=all(g_sl == every + tuple(slice(0, g) for g in grid)
                  for _, g_sl in phases),
        uncovered=tuple(tuple(sorted(set(range(s)).difference(*(
            range(s)[x_sl[2 + d]] for x_sl, _ in phases))))
            for d, s in enumerate(sig.x_shape[2:])),
        lead=lead, run=v,
        blocks=_merge([(ph * cin, cin, shift) for ph, shift in runs]),
        # The gradient of tap i of a run reads v-1-i columns into the
        # block copied for the run's last tap.
        back=tuple((tuple(r * v + i for r in rs for i in reversed(range(v))),
                    tuple((0, cout, lead - runs[r][1] - (v - 1)) for r in rs))
                   for rs in by_phase),
        chunk=_chunk_cols(len(runs) * cin + stacked * cout, itemsize),
        back_chunk=_chunk_cols(
            max(map(len, by_phase)) * cout + stacked * cin, itemsize))


def plan_conv(x_shape, w_shape, stride, padding, dtype) -> ConvPlan:
    """Return the (memoized) geometry for a conv signature."""
    global _cache_hits, _cache_misses
    sig = ConvSignature(tuple(x_shape), tuple(w_shape), tuple(stride),
                        tuple(padding), np.dtype(dtype).str)
    with _CACHE_LOCK:
        plan = _PLAN_CACHE.get(sig)
        if plan is not None:
            _cache_hits += 1
            return plan
        _cache_misses += 1
    plan = _geometry(sig)
    with _CACHE_LOCK:
        _PLAN_CACHE[sig] = plan
    return plan


# --------------------------------------------------------------------- #
# Scratch and layout helpers.
# --------------------------------------------------------------------- #

@contextmanager
def _scratch(dtype, *sizes: int):
    """1-D scratch arrays of the given lengths, carved in order from this
    thread's arena of the active backend's pool (uninitialised; the arena
    parks again on exit)."""
    dtype = np.dtype(dtype)
    with get_backend().pool.arena(sum(sizes) * dtype.itemsize) as raw:
        buf = raw.view(dtype)
        yield [buf[end - size:end]
               for size, end in zip(sizes, accumulate(sizes))]


def _on_grid(plan: ConvPlan, flat: np.ndarray) -> np.ndarray:
    """``(C, total)`` columns as ``(C, N, *grid)``."""
    return flat.reshape((len(flat), -1) + plan.grid)


def _gather(plan: ConvPlan, x: np.ndarray | tuple[np.ndarray, ...],
            src: np.ndarray) -> np.ndarray:
    """Zero-pad and phase-split ``x (N, C, *S)`` into ``(R*C, total)``.

    ``x`` may also be a tuple of channel parts ``(N, C_i, *S)``, read as
    their concatenation along the channels: each lands in its rows of
    every phase block, and the concatenation never exists."""
    c = plan.signature.x_shape[1]
    if not plan.dense:
        src.fill(0)
    src = src.reshape(-1, plan.total)
    for ph, (x_sl, g_sl) in enumerate(plan.phases):
        row = ph * c
        for part in x if isinstance(x, tuple) else (x,):
            rows = part.shape[1]
            _on_grid(plan, src[row:row + rows])[g_sl] = \
                part.swapaxes(0, 1)[x_sl]
            row += rows
    return src


def _embed(plan: ConvPlan, g: np.ndarray, buf: np.ndarray,
           lead: int) -> np.ndarray:
    """Zero-embed ``g (N, C, *So)`` on the grid behind ``lead`` zero
    columns: ``(C, lead + total)``."""
    gz = buf.reshape(g.shape[1], lead + plan.total)
    gz.fill(0)
    _on_grid(plan, gz[:, lead:])[plan.valid] = g.swapaxes(0, 1)
    return gz


def _cols_size(blocks: tuple[Block, ...], width: int) -> int:
    """Scratch ``width`` columns of the column matrix need (a lone block
    is read in place)."""
    if len(blocks) == 1:
        return 0
    return sum(rows for _, rows, _ in blocks) * width


def _columns(src: np.ndarray, blocks: tuple[Block, ...], j: int, m: int,
             buf: np.ndarray) -> np.ndarray:
    """Columns ``[j, j + m)`` of the column matrix whose row blocks are
    ``blocks`` of ``src``."""
    if len(blocks) == 1:
        row, rows, shift = blocks[0]
        return src[row:row + rows, j + shift:j + shift + m]
    height = sum(rows for _, rows, _ in blocks)
    cols = buf[:height * m].reshape(height, m)
    at = 0
    for row, rows, shift in blocks:
        cols[at:at + rows] = src[row:row + rows, j + shift:j + shift + m]
        at += rows
    return cols


def _tap_gemm(wm: np.ndarray, src: np.ndarray, blocks: tuple[Block, ...],
              v: int, cols_buf: np.ndarray, part_buf: np.ndarray,
              dst: np.ndarray, chunk: int, bias: np.ndarray | None = None,
              slope: float | None = None) -> None:
    """``dst = sum_i (wm @ cols(src))[rows of tap i, i:i + m]`` one chunk
    of ``m`` columns at a time, ``wm (v*rows, height)`` stacking the
    ``v`` taps of every run (``part_buf``: the ``v > 1`` stacked products
    of a chunk); then the per-row ``bias`` and the LeakyReLU ``slope``
    while the chunk is still in cache."""
    rows, length = dst.shape
    for j in range(0, length, chunk):
        m = min(chunk, length - j)
        out = dst[:, j:j + m]
        width = m + v - 1
        part = out if v == 1 else part_buf[:v * rows * width].reshape(-1, width)
        np.matmul(wm, _columns(src, blocks, j, width, cols_buf), out=part)
        for i in range(1, v):
            np.add(part[:rows, :m] if i == 1 else out,
                   part[i * rows:(i + 1) * rows, i:i + m], out=out)
        if bias is not None:
            out += bias
        if slope is not None:
            # LeakyReLU is max(x, slope * x) up to slope 1, the min above.
            (np.maximum if slope <= 1 else np.minimum)(out, slope * out,
                                                       out=out)


# --------------------------------------------------------------------- #
# The three primitives.  Arguments are concrete ndarrays (any strides);
# results are fresh C-contiguous channels-first arrays.
# --------------------------------------------------------------------- #

def conv_forward(plan: ConvPlan, x: np.ndarray | tuple[np.ndarray, ...],
                 w: np.ndarray,
                 bias: np.ndarray | None = None,
                 slope: float | None = None) -> np.ndarray:
    """``out (N, Cout, *So)`` of ``x (N, Cin, *S)`` and ``w (Cout, Cin, *K)``,
    plus the per-channel ``bias (Cout,)``, through LeakyReLU(``slope``).
    ``x`` may be a tuple of channel parts whose concatenation is the
    input: the copy into scratch reads them where they lie."""
    dtype = np.dtype(plan.signature.dtype)
    cout, cin = w.shape[:2]
    v = plan.run
    length = plan.total - plan.lead               # the last valid column + 1
    # (v*Cout, runs*Cin): run-major like the cols of ``src``, the taps of
    # a run stacked down the rows.
    wm = np.ascontiguousarray(
        w.reshape(cout, cin, -1, v).transpose(3, 0, 2, 1), dtype
    ).reshape(v * cout, -1)
    if bias is not None:
        bias = np.asarray(bias, dtype).reshape(cout, 1)
    out = np.empty(plan.out_shape, dtype)
    width = min(plan.chunk, length) + v - 1       # of one chunk's scratch
    with _scratch(dtype, len(plan.phases) * cin * plan.total,
                  _cols_size(plan.blocks, width), (v > 1) * v * cout * width,
                  cout * plan.total) as (src, cols, part, flat):
        src = _gather(plan, x, src)
        flat = flat.reshape(cout, plan.total)
        _tap_gemm(wm, src, plan.blocks, v, cols, part, flat[:, :length],
                  plan.chunk, bias, slope)
        out.swapaxes(0, 1)[...] = _on_grid(plan, flat)[plan.valid]
    return out


def conv_backward_data(plan: ConvPlan, g: np.ndarray,
                       w: np.ndarray) -> np.ndarray:
    """``dx (N, Cin, *S)`` from the output gradient ``g (N, Cout, *So)``."""
    sig = plan.signature
    dtype = np.dtype(sig.dtype)
    cout, cin = w.shape[:2]
    v = plan.run
    wt = w.reshape(cout, cin, -1)
    dx = np.empty(sig.x_shape, dtype)       # the phases write the rest
    for d, rows in enumerate(plan.uncovered):
        dx[(slice(None),) * (2 + d) + (list(rows),)] = 0
    dxt = dx.swapaxes(0, 1)
    width = min(plan.back_chunk, plan.total) + v - 1
    with _scratch(dtype, cout * (plan.lead + plan.total),
                  max(_cols_size(blocks, width) for _, blocks in plan.back),
                  (v > 1) * v * cin * width,
                  cin * plan.total) as (gz, cols, part, dsrc):
        gz = _embed(plan, g, gz, plan.lead)
        dsrc = dsrc.reshape(cin, plan.total)
        for (taps, blocks), (x_sl, g_sl) in zip(plan.back, plan.phases):
            # (v*Cin, runs*Cout), run-major like the cols of ``gz``.
            wm = np.ascontiguousarray(
                wt[:, :, taps].reshape(cout, cin, -1, v).transpose(3, 1, 2, 0),
                dtype).reshape(v * cin, -1)
            _tap_gemm(wm, gz, blocks, v, cols, part, dsrc, plan.back_chunk)
            dxt[x_sl] = _on_grid(plan, dsrc)[g_sl]
    return dx


def conv_backward_weight(plan: ConvPlan,
                         x: np.ndarray | tuple[np.ndarray, ...],
                         g: np.ndarray) -> np.ndarray:
    """``dw (Cout, Cin, *K)`` from the input (an array, or a tuple of its
    channel parts as for :func:`conv_forward`) and the output gradient."""
    sig = plan.signature
    dtype = np.dtype(sig.dtype)
    cin, cout = sig.x_shape[1], g.shape[1]
    v = plan.run
    length = plan.total - plan.lead
    # Tap i of every run, transposed: (v, runs*Cin, Cout).
    dwt = np.zeros((v, sig.taps // v * cin, cout), dtype)
    with _scratch(dtype, len(plan.phases) * cin * plan.total,
                  _cols_size(plan.blocks, min(plan.chunk, length) + v - 1),
                  cout * plan.total) as (src, cols, gz):
        src = _gather(plan, x, src)
        gz = _embed(plan, g, gz, 0)
        for j in range(0, length, plan.chunk):
            m = min(plan.chunk, length - j)
            run_cols = _columns(src, plan.blocks, j, m + v - 1, cols)
            for i in range(v):
                dwt[i] += np.matmul(run_cols[:, i:i + m], gz[:, j:j + m].T)
    return np.ascontiguousarray(
        dwt.reshape(v, -1, cin, cout).transpose(3, 2, 1, 0)
    ).reshape(sig.w_shape)


def conv_energy(plan: ConvPlan, x: np.ndarray, w: np.ndarray,
                coeff: np.ndarray, v: np.ndarray, adjoint: bool = True
                ) -> tuple[np.ndarray, np.ndarray | None]:
    """The quadratic form of a one-channel stride-1 convolution, fused.

    With ``W`` the unpadded convolution of ``plan`` (``x (N, 1, *S)``,
    ``w (Cout, 1, *K)``) and ``c = V coeff`` the convolution of ``coeff (N,
    1, *S)`` with ``v (G, 1, *K)``, row ``g`` of ``c`` scaling output
    channels ``[g*Cout/G, (g+1)*Cout/G)`` of ``W``, returns

    * ``1/2 <Wx, c o Wx>`` per sample, ``(N,)`` float64, and
    * ``W^T (c o Wx)``, ``(N, 1, *S)`` — or ``None`` when not ``adjoint``.

    Samples are walked one at a time with the same chunks, so a sample's
    results do not depend on what else is in the batch.
    """
    sig = plan.signature
    dtype = np.dtype(sig.dtype)
    rows, taps, groups = sig.w_shape[0], sig.taps, len(v)
    if (sig.w_shape[1] != 1 or any(sig.padding) or set(sig.stride) != {1}
            or rows % groups or v.shape[1:] != sig.w_shape[1:]):
        raise ValueError(
            "conv_energy needs a one-channel, unpadded, stride-1 plan and "
            f"coefficient kernels dividing its {rows} output channels, got "
            f"w {sig.w_shape}, v {v.shape}, stride {sig.stride}, padding "
            f"{sig.padding}")
    n = sig.x_shape[0]
    cells = plan.total // n
    length = cells - plan.lead                    # the last valid column + 1
    chunk = min(_chunk_cols(2 * taps + groups + 2 * rows, dtype.itemsize),
                length)
    wm = np.ascontiguousarray(w.reshape(rows, taps), dtype)
    wt = np.ascontiguousarray(wm.T)
    vm = np.ascontiguousarray(v.reshape(groups, taps), dtype)
    # With one channel and no padding a flat sample *is* its phase grid.
    xs = np.ascontiguousarray(x, dtype).reshape(n, 1, cells)
    cs = np.ascontiguousarray(coeff, dtype).reshape(n, 1, cells)
    out = np.zeros((n, cells), dtype) if adjoint else None
    energy = np.zeros(n)
    # One row per tap: the quadratic form reads each tap's product.
    blocks = tuple((0, 1, shift + i) for _, _, shift in plan.blocks
                   for i in range(plan.run))
    with _scratch(dtype, cells, _cols_size(blocks, chunk),
                  groups * chunk, rows * chunk, rows * chunk, taps * chunk
                  ) as (valid, cols, c, wx, q, back):
        # Columns in the tap halo hold no output: their coefficient is 0.
        valid.fill(0)
        valid.reshape(plan.grid)[plan.valid[2:]] = 1
        for i in range(n):
            for j in range(0, length, chunk):
                m = min(chunk, length - j)
                c_m = c[:groups * m].reshape(groups, m)
                wx_m = wx[:rows * m].reshape(rows, m)
                q_m = q[:rows * m].reshape(rows, m)
                np.matmul(vm, _columns(cs[i], blocks, j, m, cols),
                          out=c_m)
                c_m *= valid[j:j + m]
                np.matmul(wm, _columns(xs[i], blocks, j, m, cols),
                          out=wx_m)
                np.multiply(wx_m.reshape(groups, -1, m), c_m[:, None],
                            out=q_m.reshape(groups, -1, m))
                # Per column in the working dtype (Cout terms of one
                # sign when c >= 0), across columns in float64.
                np.multiply(wx_m, q_m, out=wx_m)
                energy[i] += np.add.reduce(wx_m, axis=0, out=c_m[0]).sum(
                    dtype=np.float64)
                if adjoint:
                    back_m = back[:taps * m].reshape(taps, m)
                    np.matmul(wt, q_m, out=back_m)
                    for row, (_, _, shift) in zip(back_m, blocks):
                        out[i, j + shift:j + shift + m] += row
    energy *= 0.5
    return energy, None if out is None else out.reshape(sig.x_shape)
