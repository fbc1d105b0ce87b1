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
worker init).  Tasks go out in bounded waves and results are stitched in
plan order on the caller, so memory stays bounded and the output is
deterministic and bitwise equal to the sequential path.
"""

from __future__ import annotations

import hashlib
import itertools
import pickle
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..autograd import Tensor, no_grad
from ..backend import get_pool
from ..backend.tuning import MeasurementCache
from ..core.inference import apply_bc_masks, prepare_batch_inputs
from ..distributed.model_parallel import extract_padded_block
from .telemetry.trace import NULL_TRACER

__all__ = ["TilePlan", "receptive_halo", "plan_tiles", "tile_candidates",
           "autotune_tile", "tiled_forward", "tiled_predict",
           "stream_tiled_forward", "stream_tiled_predict"]

# Measured tile-size winners, persisted per host (the best tile trades
# per-tile overhead against working-set size — a property of this CPU's
# caches, not of the model).  Same seam as the conv-engine autotuner:
# host-fingerprinted JSON, env-var path override for test isolation.
_TILE_MEASUREMENTS = MeasurementCache(
    default_path=Path.home() / ".cache" / "repro" / "tile_autotune.json",
    env_var="REPRO_TILE_AUTOTUNE_CACHE")


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


def tile_candidates(shape: tuple[int, ...], multiple: int) -> list[int]:
    """Aligned tile sizes worth measuring for a spatial ``shape``:
    powers-of-two multiples of ``2**depth`` up to the untiled size."""
    max_tile = min(shape)
    candidates = []
    t = multiple
    while t < max_tile:
        candidates.append(t)
        t *= 2
    if max_tile >= multiple and max_tile % multiple == 0:
        candidates.append(max_tile)   # untiled: one block per axis
    return candidates


def autotune_tile(model, problem, resolution: int | None = None,
                  halo: int | None = None, executor=None) -> int:
    """Measure-and-persist the fastest tile size for this workload.

    Times one full :func:`tiled_predict` per candidate (powers of two
    from ``2**depth`` up to the untiled size) and records the winner in
    the host-fingerprinted measurement cache, keyed by everything the
    optimum depends on: dimensionality, resolution, network depth, halo
    width, and the executor shape (tile-grain parallelism shifts the
    optimum toward more, smaller tiles).  Subsequent calls are a cache
    hit — the measurement runs once per host per key.
    """
    log_nu, _, _ = prepare_batch_inputs(
        problem, np.zeros((1, problem.field.m)), resolution)
    shape = log_nu.shape[2:]
    net = model.net
    multiple = 2 ** net.depth
    if halo is None:
        halo = receptive_halo(model)
    kind = getattr(executor, "kind", "serial")
    workers = getattr(executor, "workers", 1)
    key = (f"{len(shape)}d:r{max(shape)}:d{net.depth}:h{halo}"
           f":{kind}x{workers}")
    record = _TILE_MEASUREMENTS.get(key)
    if record is None:
        omega = np.full(problem.field.m, 0.5)
        timings: dict[str, float] = {}
        best_tile, best_dt = None, float("inf")
        for tile in tile_candidates(shape, multiple):
            t0 = time.perf_counter()
            tiled_predict(model, problem, omega, resolution,
                          tile=tile, halo=halo, executor=executor)
            dt = time.perf_counter() - t0
            timings[str(tile)] = dt
            if dt < best_dt:
                best_tile, best_dt = tile, dt
        record = _TILE_MEASUREMENTS.setdefault(
            key, {"tile": int(best_tile), "seconds": timings})
    return int(record["tile"])


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


def _net_from_blob(version: str, blob: bytes):
    net = _PROC_NET_CACHE.get(version)
    if net is None:
        net = pickle.loads(blob)
        _PROC_NET_CACHE[version] = net
    return net


def _run_tile_task(task) -> np.ndarray:
    """Module-level tile task for process executors (must pickle)."""
    version, blob, buf, core_src = task
    return _forward_tile(_net_from_blob(version, blob), buf, core_src)


def tiled_forward(net, x: np.ndarray, plan: TilePlan,
                  out_channels: int = 1, executor=None,
                  net_ref: tuple[str, bytes] | None = None,
                  tracer=None, trace_parent=None) -> np.ndarray:
    """Run ``net`` (a spatially local module in eval mode) over halo-padded
    tiles of ``x`` (shape (N, C, *spatial)) and stitch the full output.

    The caller is responsible for eval mode; this function only manages
    tiling, scratch buffers, stitching and — when ``executor`` is a
    parallel :class:`~repro.serve.executor.Executor` — the fan-out of
    independent tiles across its workers.

    ``net_ref`` is an optional ``(version, pickled net bytes)`` pair for
    the process-executor path: a long-running caller (the prediction
    server) serializes the network once per content version and replays
    the cached blob on every call, instead of paying a fresh
    ``pickle.dumps(net)`` per forward.  Without it the blob is built
    here (one pickle per call — fine for one-shot CLI use).

    ``tracer``/``trace_parent`` (optional telemetry) emit one
    "tile.compute" span per tile on the sequential and thread paths and
    one "tile.wave" span per dispatch wave on the process path (the
    parent cannot time inside a child process).
    """
    if x.shape[2:] != plan.shape:
        raise ValueError(
            f"input spatial shape {x.shape[2:]} != plan shape {plan.shape}")
    tracer = tracer or NULL_TRACER
    out = np.empty((x.shape[0], out_channels) + plan.shape, dtype=x.dtype)
    kind = getattr(executor, "kind", "serial")
    parallel = (executor is not None and kind != "serial"
                and executor.workers > 1 and plan.num_tiles > 1)
    core_dsts = [tuple(slice(start, stop) for start, stop in block)
                 for block in plan.blocks]

    if not parallel:
        pool = get_pool()
        for i, (block, core_dst) in enumerate(zip(plan.blocks, core_dsts)):
            span = tracer.start("tile.compute", parent=trace_parent, tile=i)
            padded, core_src = _padded_block(x, block, plan.halo)
            # Pooled contiguous scratch: the slicing above yields a view.
            buf = pool.acquire(padded.shape, dtype=padded.dtype)
            np.copyto(buf, padded)
            try:
                core = _forward_tile(net, buf, core_src)
            finally:
                pool.release(buf)
                span.finish()
            out[(slice(None), slice(None)) + core_dst] = core
    elif kind == "process":
        if net_ref is not None:
            version, blob = net_ref
        else:
            blob = pickle.dumps(net)
            version = hashlib.sha1(blob).hexdigest()[:12]
        # Dispatch in bounded waves so the parent never materializes
        # contiguous copies of every padded tile at once — per wave it
        # holds ~2 tiles per worker, preserving the bounded-memory point
        # of tiling on exactly the megavoxel grids it exists for.
        wave = max(1, 2 * executor.workers)
        for w0 in range(0, plan.num_tiles, wave):
            span = tracer.start("tile.wave", parent=trace_parent, first=w0,
                                count=min(wave, plan.num_tiles - w0))
            tasks = []
            for block in plan.blocks[w0:w0 + wave]:
                padded, core_src = _padded_block(x, block, plan.halo)
                # Contiguous copy: a view pickles its whole base.
                tasks.append((version, blob,
                              np.ascontiguousarray(padded), core_src))
            cores = executor.map(_run_tile_task, tasks)
            for core_dst, core in zip(core_dsts[w0:w0 + wave], cores):
                out[(slice(None), slice(None)) + core_dst] = core
            span.finish()
    else:  # thread executor: share the model, pool scratch per task

        def run(indexed_block) -> np.ndarray:
            i, block = indexed_block
            span = tracer.start("tile.compute", parent=trace_parent, tile=i)
            padded, core_src = _padded_block(x, block, plan.halo)
            pool = get_pool()
            buf = pool.acquire(padded.shape, dtype=padded.dtype)
            np.copyto(buf, padded)
            try:
                return _forward_tile(net, buf, core_src)
            finally:
                pool.release(buf)
                span.finish()

        cores = executor.map(run, list(enumerate(plan.blocks)))
        for core_dst, core in zip(core_dsts, cores):
            out[(slice(None), slice(None)) + core_dst] = core
    return out


def stream_tiled_forward(net, x: np.ndarray, plan: TilePlan,
                         executor=None,
                         net_ref: tuple[str, bytes] | None = None,
                         tiles=None):
    """Stream tile cores as they complete instead of stitching them.

    Yields ``(tile_index, core_slices, core)`` records where
    ``tile_index`` is the tile's position in ``plan.blocks`` (a stable
    identity independent of completion order), ``core_slices`` is the
    spatial destination ``tuple[slice, ...]`` into the full field, and
    ``core`` is a fresh ``(N, C, *core_shape)`` array.  Assigning every
    core via ``out[(slice(None), slice(None)) + core_slices] = core``
    reproduces :func:`tiled_forward` bitwise — the per-tile compute is
    the same code path; only delivery order differs.

    ``tiles`` optionally restricts the stream to a subset of tile
    indices (e.g. a fleet resuming a stream on a replacement replica
    skips tiles the consumer already holds).
    """
    if x.shape[2:] != plan.shape:
        raise ValueError(
            f"input spatial shape {x.shape[2:]} != plan shape {plan.shape}")
    if tiles is None:
        indices = list(range(plan.num_tiles))
    else:
        indices = [int(t) for t in tiles]
        for t in indices:
            if not 0 <= t < plan.num_tiles:
                raise ValueError(
                    f"tile index {t} out of range for {plan.num_tiles} tiles")
    core_dsts = {i: tuple(slice(start, stop) for start, stop in plan.blocks[i])
                 for i in indices}
    kind = getattr(executor, "kind", "serial")
    parallel = (executor is not None and kind != "serial"
                and executor.workers > 1 and len(indices) > 1)

    if not parallel:
        pool = get_pool()
        for i in indices:
            padded, core_src = _padded_block(x, plan.blocks[i], plan.halo)
            buf = pool.acquire(padded.shape, dtype=padded.dtype)
            np.copyto(buf, padded)
            try:
                core = _forward_tile(net, buf, core_src)
            finally:
                pool.release(buf)
            yield i, core_dsts[i], core
    elif kind == "process":
        if net_ref is not None:
            version, blob = net_ref
        else:
            blob = pickle.dumps(net)
            version = hashlib.sha1(blob).hexdigest()[:12]
        # Bounded waves, as in tiled_forward: the parent holds contiguous
        # copies of ~2 tiles per worker at a time.  Within a wave results
        # stream out in completion order.
        wave = max(1, 2 * executor.workers)
        for w0 in range(0, len(indices), wave):
            wave_ids = indices[w0:w0 + wave]
            tasks = []
            for i in wave_ids:
                padded, core_src = _padded_block(x, plan.blocks[i], plan.halo)
                tasks.append((version, blob,
                              np.ascontiguousarray(padded), core_src))
            for pos, core in executor.imap_unordered(_run_tile_task, tasks):
                i = wave_ids[pos]
                yield i, core_dsts[i], core
    else:  # thread executor: share the model, pool scratch per task

        def run(i) -> np.ndarray:
            padded, core_src = _padded_block(x, plan.blocks[i], plan.halo)
            pool = get_pool()
            buf = pool.acquire(padded.shape, dtype=padded.dtype)
            np.copyto(buf, padded)
            try:
                return _forward_tile(net, buf, core_src)
            finally:
                pool.release(buf)

        for pos, core in executor.imap_unordered(run, indices):
            i = indices[pos]
            yield i, core_dsts[i], core


def stream_tiled_predict(model, problem, omegas: np.ndarray,
                         resolution: int | None = None,
                         tile: "int | str | None" = None,
                         halo: int | None = None, executor=None,
                         net_ref: tuple[str, bytes] | None = None,
                         tiles=None):
    """Streaming counterpart of :func:`tiled_predict`.

    Yields ``(tile_index, core_slices, core)`` records where ``core`` is
    the *masked* prediction for that core region, shape
    ``(B, *core_shape)``, and ``core_slices`` indexes the spatial axes of
    the assembled ``(B, *grid.shape)`` field.  Dirichlet masking
    (Algorithm 1 line 8) is pointwise, so masking each core is bitwise
    identical to masking the stitched field — assembling every record
    reproduces :func:`tiled_predict` exactly.

    The generator holds the model in eval mode only while it is being
    consumed; ``tiles`` restricts the stream to a subset of tile indices
    for mid-stream resume.
    """
    if tile == "autotune":
        tile = autotune_tile(model, problem, resolution, halo, executor)
    log_nu, chi_int, u_bc = prepare_batch_inputs(problem, omegas, resolution)
    shape = log_nu.shape[2:]

    net = model.net
    multiple = 2 ** net.depth
    if halo is None:
        halo = receptive_halo(model)
    if tile is None:
        tile = max(multiple, min(shape))
    plan = plan_tiles(shape, tile, halo, multiple)

    was_training = model.training
    model.eval()
    try:
        for i, core_dst, core in stream_tiled_forward(
                net, log_nu, plan, executor=executor,
                net_ref=net_ref, tiles=tiles):
            mask = (slice(None), slice(None)) + core_dst
            yield i, core_dst, apply_bc_masks(
                core, chi_int[mask], u_bc[mask])
    finally:
        model.train(was_training)


def tiled_predict(model, problem, omegas: np.ndarray,
                  resolution: int | None = None,
                  tile: "int | str | None" = None,
                  halo: int | None = None, executor=None,
                  net_ref: tuple[str, bytes] | None = None,
                  tracer=None, trace_parent=None) -> np.ndarray:
    """Tiled counterpart of :func:`repro.core.inference.predict_batch`.

    Produces the same ``(B, *grid.shape)`` full-field predictions, but
    never materializes activations for more than one ``tile + 2*halo``
    block at a time (per worker).  With the default (receptive-field)
    halo the result matches the single-pass forward to float roundoff.
    ``executor`` fans independent tiles across a worker pool; the
    stitched field is identical to the sequential result.  ``net_ref``
    (``(version, pickled net)``) lets a serving caller reuse one
    serialization of the network across calls on the process path.
    ``tile="autotune"`` resolves the size through :func:`autotune_tile`
    (measured once per host/workload, persisted, then a cache hit).
    """
    if tile == "autotune":
        tile = autotune_tile(model, problem, resolution, halo, executor)
    log_nu, chi_int, u_bc = prepare_batch_inputs(problem, omegas, resolution)
    shape = log_nu.shape[2:]

    net = model.net
    multiple = 2 ** net.depth
    if halo is None:
        halo = receptive_halo(model)
    if tile is None:
        tile = max(multiple, min(shape))
    plan = plan_tiles(shape, tile, halo, multiple)

    was_training = model.training
    model.eval()
    try:
        u_net = tiled_forward(net, log_nu, plan, out_channels=1,
                              executor=executor, net_ref=net_ref,
                              tracer=tracer, trace_parent=trace_parent)
    finally:
        model.train(was_training)

    # Dirichlet masking (Algorithm 1 line 8) is pointwise, so applying it
    # to the stitched field is identical to applying it per tile.
    return apply_bc_masks(u_net, chi_int, u_bc)
