"""Tiled megavoxel inference: exact full-field prediction in bounded memory.

A full U-Net forward at megavoxel resolution holds ``base_filters`` x the
input field in activations per layer — far beyond what one forward pass
can afford.  This module shards the spatial grid into halo-padded tiles,
runs the network tile by tile, and stitches an *exact* full-field result:

* tile starts and halo widths are aligned to ``2**depth`` so every
  down/up-sampling grid inside a tile coincides with the full-field one;
* the halo is at least the network's receptive-field radius, so the
  zero padding a 'same' conv applies at a padded tile's edge can never
  reach the tile's core region;
* at the physical domain boundary the tile is cropped instead of padded
  (:func:`repro.distributed.model_parallel.extract_padded_block`), so the
  network's own zero padding applies there exactly as in the full-field
  computation.

In eval mode every layer of MGDiffNet is spatially local (convolutions,
transposed convolutions, pointwise activations, BatchNorm with running
statistics), which is what makes the stitched result exact rather than
approximate.

Tile scratch buffers come from the active backend's :class:`BufferPool`,
so a long-running server recycles the same few tile allocations instead
of churning the allocator.

Tiles are *independent* (disjoint cores, read-only input), so the loop
over them is embarrassingly parallel: pass an
:class:`~repro.serve.executor.Executor` to fan tiles across a thread or
process pool.  Thread workers share the model and the (thread-safe)
buffer pool; process workers receive the pickled network bytes with each
task but *unpickle* it only once per model version (per-process cache) —
the models are small, it is the fields that are megavoxel — and each
child owns its own backend and pool (re-initialised by the executor's
worker init).  Tasks go out in bounded waves and every core lands in its
own disjoint destination, so memory stays bounded and the output is
bitwise equal to the sequential path whatever the completion order.

There is one tile loop, :func:`stream_tiled_forward`; the stitching entry
points are folds over the streams.  Halo over-compute falls monotonically
with tile size, so the right tile is the largest the memory budget allows.
"""

from __future__ import annotations

import hashlib
import itertools
import pickle
from dataclasses import dataclass

import numpy as np

from ..autograd import Tensor, no_grad
from ..backend import get_pool
from ..core.inference import apply_bc_masks, prepare_batch_inputs
from ..distributed.model_parallel import extract_padded_block
from .telemetry.trace import NULL_SPAN, NULL_TRACER

__all__ = ["TilePlan", "receptive_halo", "plan_tiles", "tiled_forward",
           "tiled_predict", "stream_tiled_forward", "stream_tiled_predict"]


@dataclass(frozen=True)
class TilePlan:
    """Axis-aligned tiling of a spatial grid.

    ``blocks`` holds, per tile, a tuple of per-axis ``(start, stop)``
    core ranges; halos are resolved at execution time against the domain
    boundary by :func:`extract_padded_block`.
    """

    shape: tuple[int, ...]
    tile: int
    halo: int
    multiple: int
    blocks: tuple[tuple[tuple[int, int], ...], ...]

    @property
    def num_tiles(self) -> int:
        return len(self.blocks)


def receptive_halo(model) -> int:
    """Conservative receptive-field radius of an MGDiffNet/UNet, rounded
    up to a multiple of ``2**depth`` (the tile alignment unit).

    Walking the architecture: each encoder level l contributes a k3 conv
    block plus a k2 stride-2 downsample (~2 * 2**l fine pixels), the
    bottleneck a k3 block at the coarsest scale (2**depth), each decoder
    level another k3 block (2**l), and each refinement block two k3
    layers at the finest scale.  Summing and rounding up gives a radius
    that provably covers the true receptive field.
    """
    net = getattr(model, "net", model)
    depth = net.depth
    unit = 2 ** depth
    n_ref = len(list(net.refinements.children())) if hasattr(
        net, "refinements") else 0
    radius = 4 * unit - 3 + 2 * n_ref
    return ((radius + unit - 1) // unit) * unit


def plan_tiles(shape: tuple[int, ...], tile: int, halo: int,
               multiple: int) -> TilePlan:
    """Partition a spatial ``shape`` into aligned core blocks.

    ``tile`` and ``halo`` must be positive multiples of ``multiple``
    (= ``2**depth``) and every spatial size must itself be divisible by
    ``multiple`` — the same constraint the U-Net puts on its input.
    """
    if tile < multiple or tile % multiple:
        raise ValueError(
            f"tile {tile} must be a positive multiple of {multiple}")
    if halo < 0 or halo % multiple:
        raise ValueError(f"halo {halo} must be a multiple of {multiple}")
    for s in shape:
        if s % multiple:
            raise ValueError(
                f"spatial size {s} not divisible by {multiple}")
    per_axis = [[(start, min(start + tile, s)) for start in range(0, s, tile)]
                for s in shape]
    blocks = tuple(tuple(combo) for combo in itertools.product(*per_axis))
    return TilePlan(shape=tuple(shape), tile=tile, halo=halo,
                    multiple=multiple, blocks=blocks)


def _resolve_plan(model, shape: tuple[int, ...], tile: int | None,
                  halo: int | None) -> TilePlan:
    """The tiling prologue of every predict path: alignment unit from the
    network depth, receptive-field halo and the untiled size as defaults."""
    multiple = 2 ** model.net.depth
    if halo is None:
        halo = receptive_halo(model)
    if tile is None:
        tile = max(multiple, min(shape))
    return plan_tiles(shape, tile, halo, multiple)


def _tile_indices(plan: TilePlan, tiles=None) -> list[int]:
    """The tile subset a stream delivers (``None``: all, in plan order);
    each index in range and named once — delivery is exactly-once."""
    if tiles is None:
        return list(range(plan.num_tiles))
    indices = [int(t) for t in tiles]
    for t in indices:
        if not 0 <= t < plan.num_tiles:
            raise ValueError(
                f"tile index {t} out of range for {plan.num_tiles} tiles")
    if len(set(indices)) != len(indices):
        raise ValueError(f"duplicate tile index in {indices}")
    return indices


def _padded_block(x: np.ndarray, block, halo: int):
    """Halo-padded view of one tile plus the core slices into it."""
    padded = x
    offsets = []
    for d, (start, stop) in enumerate(block):
        padded, off = extract_padded_block(
            padded, axis=2 + d, start=start, stop=stop, halo=halo)
        offsets.append(off)
    core_src = tuple(
        slice(off, off + (stop - start))
        for off, (start, stop) in zip(offsets, block))
    return padded, core_src


def _forward_tile(net, buf: np.ndarray, core_src) -> np.ndarray:
    """One padded-tile forward; returns a fresh copy of the core region."""
    with no_grad():
        # .numpy() realizes the fused forward under the lazy backend.
        y = net(Tensor(buf)).numpy()
    return y[(slice(None), slice(None)) + core_src].copy()


# Per-process cache of unpickled networks, keyed by content digest.  Only
# populated inside ProcessExecutor workers; entries are tiny (the models
# are small — it is the *fields* that are megavoxel).
_PROC_NET_CACHE: dict[str, object] = {}


def _run_tile_task(task) -> np.ndarray:
    """Module-level tile task for process executors (must pickle)."""
    version, blob, buf, core_src = task
    net = _PROC_NET_CACHE.get(version)
    if net is None:
        net = _PROC_NET_CACHE[version] = pickle.loads(blob)
    return _forward_tile(net, buf, core_src)


def stream_tiled_forward(net, x: np.ndarray, plan: TilePlan, executor=None,
                         net_ref: tuple[str, bytes] | None = None,
                         tiles=None, tracer=None, trace_parent=None):
    """Run ``net`` (a spatially local module in eval mode) over halo-padded
    tiles of ``x`` (shape (N, C, *spatial)), streaming cores as they complete.

    Yields ``(tile_index, core_slices, core)`` records where
    ``tile_index`` is the tile's position in ``plan.blocks`` (a stable
    identity independent of completion order), ``core_slices`` is the
    spatial destination ``tuple[slice, ...]`` into the full field, and
    ``core`` is a fresh ``(N, C, *core_shape)`` array.

    The caller is responsible for eval mode; this function manages
    tiling, scratch buffers and — when ``executor`` is a parallel
    :class:`~repro.serve.executor.Executor` — the fan-out of independent
    tiles across its workers.  ``tiles`` optionally restricts the stream
    to a subset of tile indices (e.g. a fleet resuming a stream on a
    replacement replica skips tiles the consumer already holds).

    ``net_ref`` is an optional ``(version, pickled net bytes)`` pair for
    the process-executor path: a long-running caller (the prediction
    server) serializes the network once per content version and replays
    the cached blob on every call.  Without it the blob is built here
    (one pickle per call — fine for one-shot CLI use).

    ``tracer``/``trace_parent`` (optional telemetry) emit one
    "tile.compute" span per tile on the sequential and thread paths and
    one "tile.wave" span per dispatch wave on the process path (the
    parent cannot time inside a child process).
    """
    if x.shape[2:] != plan.shape:
        raise ValueError(
            f"input spatial shape {x.shape[2:]} != plan shape {plan.shape}")
    indices = _tile_indices(plan, tiles)
    tracer = tracer or NULL_TRACER
    kind = getattr(executor, "kind", "serial")

    def core_dst(i: int) -> tuple[slice, ...]:
        return tuple(slice(start, stop) for start, stop in plan.blocks[i])

    def run(i: int) -> np.ndarray:
        span = tracer.start("tile.compute", parent=trace_parent, tile=i)
        padded, core_src = _padded_block(x, plan.blocks[i], plan.halo)
        # Pooled contiguous scratch: the slicing above yields a view.
        # Thread workers each resolve their own (thread-safe) pool.
        pool = get_pool()
        buf = pool.acquire(padded.shape, dtype=padded.dtype)
        np.copyto(buf, padded)
        try:
            return _forward_tile(net, buf, core_src)
        finally:
            pool.release(buf)
            span.finish()

    if (executor is None or kind == "serial" or executor.workers <= 1
            or len(indices) <= 1):
        for i in indices:
            yield i, core_dst(i), run(i)
        return

    if kind == "process":
        if net_ref is not None:
            version, blob = net_ref
        else:
            blob = pickle.dumps(net)
            version = hashlib.sha1(blob).hexdigest()[:12]

        def remote_task(i: int):
            padded, core_src = _padded_block(x, plan.blocks[i], plan.halo)
            # Contiguous copy: a view pickles its whole base.
            return version, blob, np.ascontiguousarray(padded), core_src

    # Dispatch in bounded waves so the parent never materializes
    # contiguous copies of every padded tile at once — per wave it holds
    # ~2 tiles per worker, preserving the bounded-memory point of tiling
    # on exactly the megavoxel grids it exists for — and a closed stream
    # abandons at most one wave.  Within a wave results stream out in
    # completion order.
    wave = max(1, 2 * executor.workers)
    for w0 in range(0, len(indices), wave):
        wave_ids = indices[w0:w0 + wave]
        if kind == "process":
            wave_span = tracer.start("tile.wave", parent=trace_parent,
                                     first=w0, count=len(wave_ids))
            fn, tasks = _run_tile_task, [remote_task(i) for i in wave_ids]
        else:  # thread executor: share the model, pool scratch per task
            wave_span = NULL_SPAN
            fn, tasks = run, wave_ids
        fan_out = tracer.start("executor.map", kind=kind,
                               items=len(wave_ids), workers=executor.workers)
        try:
            for pos, core in executor.imap_unordered(fn, tasks):
                i = wave_ids[pos]
                yield i, core_dst(i), core
        finally:
            fan_out.finish()
            wave_span.finish()


def tiled_forward(net, x: np.ndarray, plan: TilePlan,
                  out_channels: int = 1, executor=None,
                  net_ref: tuple[str, bytes] | None = None,
                  tracer=None, trace_parent=None) -> np.ndarray:
    """Stitch the full ``(N, out_channels, *plan.shape)`` output of
    :func:`stream_tiled_forward` (same arguments): every tile's core
    assigned to its disjoint destination."""
    out = np.empty((x.shape[0], out_channels) + plan.shape, dtype=x.dtype)
    for _, core_dst, core in stream_tiled_forward(
            net, x, plan, executor=executor, net_ref=net_ref,
            tracer=tracer, trace_parent=trace_parent):
        out[(slice(None), slice(None)) + core_dst] = core
    return out


def stream_tiled_predict(model, problem, omegas: np.ndarray,
                         resolution: int | None = None,
                         tile: int | None = None, halo: int | None = None,
                         executor=None,
                         net_ref: tuple[str, bytes] | None = None,
                         tiles=None, tracer=None, trace_parent=None):
    """Tiled, streaming counterpart of
    :func:`repro.core.inference.predict_batch`.

    Yields ``(tile_index, core_slices, core)`` records where ``core`` is
    the *masked* prediction for that core region, shape
    ``(B, *core_shape)``, and ``core_slices`` indexes the spatial axes of
    the assembled ``(B, *grid.shape)`` field.  Dirichlet masking
    (Algorithm 1 line 8) is pointwise, so masking each core is bitwise
    identical to masking the stitched field.

    ``tile``/``halo`` default to the untiled size and the network's
    receptive-field halo; the remaining arguments are
    :func:`stream_tiled_forward`'s.  The generator holds the model in
    eval mode only while it is being consumed.
    """
    log_nu, chi_int, u_bc = prepare_batch_inputs(problem, omegas, resolution)
    plan = _resolve_plan(model, log_nu.shape[2:], tile, halo)
    with model.evaluating():
        for i, core_dst, core in stream_tiled_forward(
                model.net, log_nu, plan, executor=executor, net_ref=net_ref,
                tiles=tiles, tracer=tracer, trace_parent=trace_parent):
            mask = (slice(None), slice(None)) + core_dst
            yield i, core_dst, apply_bc_masks(core, chi_int[mask], u_bc[mask])


def tiled_predict(model, problem, omegas: np.ndarray,
                  resolution: int | None = None,
                  tile: int | None = None, halo: int | None = None,
                  executor=None,
                  net_ref: tuple[str, bytes] | None = None,
                  tracer=None, trace_parent=None) -> np.ndarray:
    """Tiled counterpart of :func:`repro.core.inference.predict_batch`.

    Produces the same ``(B, *grid.shape)`` full-field predictions, but
    never materializes activations for more than one ``tile + 2*halo``
    block at a time (per worker).  With the default (receptive-field)
    halo the result matches the single-pass forward to float roundoff.
    ``executor`` fans independent tiles across a worker pool; the
    stitched field is identical to the sequential result.  A fold over
    :func:`stream_tiled_predict` (same arguments).
    """
    shape = problem.grid(resolution or problem.resolution).shape
    out = None
    for _, core_dst, core in stream_tiled_predict(
            model, problem, omegas, resolution, tile=tile, halo=halo,
            executor=executor, net_ref=net_ref,
            tracer=tracer, trace_parent=trace_parent):
        if out is None:
            out = np.empty(core.shape[:1] + shape, dtype=core.dtype)
        out[(slice(None),) + core_dst] = core
    return out
