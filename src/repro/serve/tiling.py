"""Tiled megavoxel inference: exact full-field prediction in bounded memory.

A full U-Net forward at megavoxel resolution holds ``base_filters`` x the
input field in activations per layer — far beyond what one forward pass
can afford.  This module runs the network as *level-wise tile sweeps* —
the forward half of the spatial model parallelism the paper's Sec. 5
leaves open; the backward half (spatial model-parallel *training*) is
still open — and stitches an exact full-field result:

* at U-Net level ``l`` a *down sweep* runs the encoder block and the
  down-sampling block by block, writing each core into the whole array
  of level ``l + 1``; the levels below recurse, and from the first array
  that fits in one block (the bottleneck at the latest) the rest of the
  network runs whole — each level is 1/2^d of the volume above it;
* an *up sweep* then recomputes the level's skip on each block, up-samples
  the matching slab of the result below and runs the decoder block, whose
  conv reads the up-sampled map and the skip as two channel parts (their
  concatenation is never built); at level 0 it also runs the network head
  and emits the tile's core.  The full-resolution skip is never stored:
  only the coarse pyramid (input and result of the deeper levels,
  ~``base_filters / 2`` field sizes in total) outlives a block.  Within a
  block, the conv engine's scratch is one arena per thread, as large as
  the largest conv call (the pool's, :meth:`BufferPool.arena`), so a
  worker's memory is that block's activations plus one arena;
* every sweep's halo is the radius of the layers its stage chains, read
  from their kernel sizes and kept even so a padded block maps onto whole
  cells of the level below — no block pays the network's receptive field;
* at the physical domain boundary a block is cropped instead of padded
  (:func:`extract_padded_block`), so the network's own zero padding
  applies there as in the full-field forward.

In eval mode every layer of MGDiffNet is spatially local (convolutions,
transposed convolutions, pointwise activations, BatchNorm with running
statistics), which makes the stitched result exact: equal to the single
forward up to the rounding of a GEMM evaluated at another column offset
(1e-6 at 128^3, against a gate of 1e-5; ``docs/pr22_level_tiling.md``).

The blocks of one sweep are *independent* (disjoint cores, read-only
input): pass an :class:`~repro.serve.executor.Executor` to fan them
across a thread or process pool.  Thread workers share the model and read
their blocks as views of the shared input, each with its own conv arena
in the (thread-safe) :class:`BufferPool`; process workers receive the pickled network bytes with each task but *unpickle*
it only once per model version (per-process cache) — the models are
small, it is the fields that are megavoxel — and each child owns its own
backend and pool.  Tasks go out in bounded waves and every core lands in
its own disjoint destination, so memory stays bounded and the output is
bitwise equal to the sequential path whatever the completion order.

There is one tile engine, :func:`stream_tiled_forward`; the stitching
entry points are folds over the streams.  The first core leaves after the
down sweep and the coarse levels, the rest one up-sweep block apart.
Halo over-compute falls monotonically with tile size, so the right tile
is the largest the memory budget allows.
"""

from __future__ import annotations

import hashlib
import itertools
import pickle
from dataclasses import dataclass

import numpy as np

from ..autograd import Tensor, no_grad
from ..core.inference import apply_bc_masks, prepare_batch_inputs
from .telemetry.trace import NULL_SPAN, NULL_TRACER

__all__ = ["TilePlan", "receptive_halo", "plan_tiles", "extract_padded_block",
           "tiled_forward", "tiled_predict", "stream_tiled_forward",
           "stream_tiled_predict"]


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


def _radius(module) -> int:
    """Fine cells a stack of layers reads beyond the edge of its output,
    from the layers' own kernel sizes: a stride-1 'same' layer of kernel
    ``k`` reads ``k // 2``; a layer whose kernel equals its stride (the
    2x down/up-sampling, like the 2x pooling) maps whole cells to whole
    cells and reads none; pointwise layers carry no kernel at all."""
    radius = 0
    for layer in module.modules():
        kernel = getattr(layer, "kernel_size", None)
        if kernel is None:
            continue
        if set(layer.stride) == {1}:
            radius += max(kernel) // 2
        elif kernel != layer.stride:
            raise ValueError(f"cannot tile across {layer!r}: a strided "
                             f"layer must have kernel == stride")
    return radius


def _sweep_halo(net, level: int, up: bool) -> int:
    """Halo of one sweep in that level's cells: the radius of the layers
    its stage chains (:func:`_run_stage`), rounded up to even so a padded
    block always maps onto whole cells of the level below."""
    stage = [net.enc_blocks[level]]
    if up:
        stage.append(net.ups[net.depth - 1 - level])
        if level == 0:
            stage += [net.refinements, net.out_conv]
    else:
        stage.append(net.downs[level])
    radius = sum(_radius(module) for module in stage)
    return radius + radius % 2


def receptive_halo(model) -> int:
    """Default ``halo`` of a plan for an MGDiffNet/UNet: the margin of the
    emitting (level-0 up) sweep — encoder block, decoder block, refinements
    and output conv, read from their kernel sizes.  The coarser sweeps size
    their own halos the same way; a wider ``halo`` stays exact."""
    return _sweep_halo(getattr(model, "net", model), 0, up=True)


def _blocks(shape: tuple[int, ...], tile: int):
    """Row-major ``tile``-sized blocks of ``shape`` (the last one ragged),
    each a tuple of per-axis ``(start, stop)``."""
    per_axis = [[(start, min(start + tile, s)) for start in range(0, s, tile)]
                for s in shape]
    return tuple(itertools.product(*per_axis))


def check_halo(halo: int) -> None:
    """Reject a halo that is negative or odd: a padded block must map
    onto whole cells of the next level."""
    if halo < 0 or halo % 2:
        raise ValueError(f"halo {halo} must be even and non-negative")


def plan_tiles(shape: tuple[int, ...], tile: int, halo: int,
               multiple: int) -> TilePlan:
    """Partition a spatial ``shape`` into aligned core blocks.

    ``tile`` must be a positive multiple of ``multiple`` (= ``2**depth``)
    and every spatial size divisible by it — the same constraint the
    U-Net puts on its input; ``halo`` (the emitting sweep's margin) must
    be even, so a padded block maps onto whole cells of the next level.
    """
    if tile < multiple or tile % multiple:
        raise ValueError(
            f"tile {tile} must be a positive multiple of {multiple}")
    check_halo(halo)
    for s in shape:
        if s % multiple:
            raise ValueError(
                f"spatial size {s} not divisible by {multiple}")
    return TilePlan(shape=tuple(shape), tile=tile, halo=halo,
                    multiple=multiple, blocks=_blocks(shape, tile))


def _resolve_plan(model, shape: tuple[int, ...], tile: int | None,
                  halo: int | None) -> TilePlan:
    """The tiling prologue of every predict path: alignment unit from the
    network depth, the emitting sweep's halo and the untiled size as
    defaults."""
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


def _halved(box):
    """``box`` in the cells of the level below (rounded outward)."""
    return tuple((start // 2, -(-stop // 2)) for start, stop in box)


def _slices(box) -> tuple[slice, ...]:
    return tuple(slice(start, stop) for start, stop in box)


def _cone(net, shape, tile: int, halo: int, needed, level: int = 0):
    """Dependency cone of the sweeps: which blocks each must run for the
    level-``level`` result to be valid on the boxes ``needed``, ``halo``
    being the plan's (the emitting sweep's).

    Returns ``(ids, reads)``: ``ids`` lists ``(down_ids, up_ids)`` for
    this and every deeper tiled level, ``reads`` the boxes of this
    level's input the result on ``needed`` depends on.  An up block reads
    its core grown by the sweep's halo and needs the level below on half
    of that; a down block is needed wherever the level below reads its
    input.  A level that runs whole is one all-or-nothing block, but its
    result on ``needed`` depends on its input only through the same
    chain of radii, so the sweeps above it stay restricted.
    """
    def grown(boxes, margin):
        return [tuple((max(a - margin, 0), min(b + margin, s))
                      for (a, b), s in zip(box, shape)) for box in boxes]

    if level == net.depth:
        return [], grown(needed, _radius(net.bottleneck))
    blocks = _blocks(shape, tile)
    tiled = len(blocks) > 1

    def touching(boxes, scale):
        return [i for i, block in enumerate(blocks) if any(
            all(a // scale < hi and lo < b // scale
                for (a, b), (lo, hi) in zip(block, box)) for box in boxes)]

    up = touching(needed, 1)
    reads = grown([blocks[i] for i in up] if tiled else needed,
                  _sweep_halo(net, level, up=True) if level else halo)
    deeper, coarse_reads = _cone(net, tuple(s // 2 for s in shape), tile, halo,
                                 [_halved(box) for box in reads], level + 1)
    down = touching(coarse_reads, 2)
    reads += grown([blocks[i] for i in down] if tiled else
                   [tuple((2 * a, 2 * b) for a, b in box)
                    for box in coarse_reads],
                   _sweep_halo(net, level, up=False))
    return ([(down, up)] if tiled else []) + deeper, reads


def extract_padded_block(x: np.ndarray, axis: int, start: int, stop: int,
                         halo: int) -> tuple[np.ndarray, int]:
    """Slice ``x[..., start:stop, ...]`` along ``axis`` with up to ``halo``
    extra layers of neighbouring data on each side.

    Where a neighbour exists the halo is real data, and at the domain
    boundary the block is simply *cropped* (no zero fill), so a 'same'
    convolution applied to the block pads the physical boundary exactly
    like the full-field computation does.

    Returns ``(block, core_offset)`` where ``block`` is a view of ``x`` and
    ``core_offset`` is the index of ``start`` inside it along ``axis``.
    """
    size = x.shape[axis]
    if not (0 <= start < stop <= size):
        raise ValueError(f"block [{start}, {stop}) outside axis of size {size}")
    if halo < 0:
        raise ValueError("halo must be >= 0")
    lo = max(start - halo, 0)
    hi = min(stop + halo, size)
    index = [slice(None)] * x.ndim
    index[axis] = slice(lo, hi)
    return x[tuple(index)], start - lo


def _stage_inputs(x: np.ndarray, coarse, block, halo: int):
    """Views one stage reads for one block: the halo-padded block of
    ``x`` (cropped, not padded, at the domain boundary), the matching
    slab of ``coarse`` (up sweep; ``None`` on a down sweep) and the core
    slices into the stage's output — which a down sweep halves."""
    padded = x
    core, slab = [], []
    for d, (start, stop) in enumerate(block):
        padded, off = extract_padded_block(
            padded, axis=2 + d, start=start, stop=stop, halo=halo)
        core.append((off, off + stop - start))
        slab.append((start - off, start - off + padded.shape[2 + d]))
    lead = (slice(None), slice(None))
    if coarse is None:
        return padded, None, lead + _slices(_halved(core))
    return padded, coarse[lead + _slices(_halved(slab))], lead + _slices(core)


def _run_stage(net, level: int, x: np.ndarray, coarse, core) -> np.ndarray:
    """One stage of the level-wise sweep on one padded block ``x``: the
    level's encoder block, then either its down-sampling (down sweep,
    ``coarse`` is None) or — the encoder output being the skip — its
    UpBlock on the slab ``coarse`` of the level below's result and, at
    level 0, the network head (up sweep).  Returns a fresh copy of the
    ``core`` region of the stage's output."""
    with no_grad():
        skip = net.enc_blocks[level](Tensor(x))
        if coarse is None:
            y = net.downs[level](skip)
        else:
            y = net.ups[net.depth - 1 - level](Tensor(coarse), skip)
            if level == 0:
                y = net.head(y)
        # .numpy() realizes the fused forward under the lazy backend.
        return y.numpy()[core].copy()


# Per-process cache of unpickled networks, keyed by content digest.  Only
# populated inside ProcessExecutor workers; entries are tiny (the models
# are small — it is the *fields* that are megavoxel).
_PROC_NET_CACHE: dict[str, object] = {}


def _run_stage_task(task) -> np.ndarray:
    """Module-level stage task for process executors (must pickle)."""
    version, blob, level, x, coarse, core = task
    net = _PROC_NET_CACHE.get(version)
    if net is None:
        net = _PROC_NET_CACHE[version] = pickle.loads(blob)
    return _run_stage(net, level, x, coarse, core)


def stream_tiled_forward(net, x: np.ndarray, plan: TilePlan, executor=None,
                         net_ref: tuple[str, bytes] | None = None,
                         tiles=None, tracer=None, trace_parent=None):
    """Run ``net`` (a :class:`~repro.nn.UNet` in eval mode) over ``x``
    (shape (N, C, *spatial)) by level-wise tile sweeps, streaming the
    cores of ``plan``'s tiles as the emitting sweep completes them.

    Yields ``(tile_index, core_slices, core)`` records where
    ``tile_index`` is the tile's position in ``plan.blocks`` (a stable
    identity independent of completion order), ``core_slices`` is the
    spatial destination ``tuple[slice, ...]`` into the full field, and
    ``core`` is a fresh ``(N, C, *core_shape)`` array.  The first record
    leaves after the down sweep and the coarse levels have run.

    The caller is responsible for eval mode; this function manages the
    sweeps and — when ``executor`` is a parallel
    :class:`~repro.serve.executor.Executor` — the fan-out of each sweep's
    independent blocks across its workers.  ``tiles`` optionally
    restricts the stream to a subset of tile indices (e.g. a caller that
    already holds the other tiles, or wants one region first); every
    sweep then runs only the blocks in those tiles' dependency cone
    (:func:`_cone`).

    ``net_ref`` is an optional ``(version, pickled net bytes)`` pair for
    the process-executor path: a long-running caller (the prediction
    server) serializes the network once per content version and replays
    the cached blob on every call.  Without it the blob is built here
    (one pickle per call — fine for one-shot CLI use).

    ``tracer``/``trace_parent`` (optional telemetry) emit one
    "tile.compute" span per block of every sweep (and one around the
    levels run whole) on the sequential and thread paths and one
    "tile.wave" span per dispatch wave on the process path (the parent
    cannot time inside a child process).
    """
    if x.shape[2:] != plan.shape:
        raise ValueError(
            f"input spatial shape {x.shape[2:]} != plan shape {plan.shape}")
    indices = _tile_indices(plan, tiles)
    tracer = tracer or NULL_TRACER
    kind = getattr(executor, "kind", "serial")
    parallel = not (executor is None or kind == "serial"
                    or executor.workers <= 1)

    def whole(level: int, x: np.ndarray) -> np.ndarray:
        """``net`` from ``level`` down and back up on an array that fits
        in one block (at level 0: the plain forward)."""
        span = tracer.start("tile.compute", parent=trace_parent,
                            level=level, sweep="whole")
        try:
            with no_grad():
                y = net.levels(Tensor(x), level) if level else net(Tensor(x))
                return y.numpy()
        finally:
            span.finish()

    if plan.num_tiles == 1 or not indices:
        for i in indices:
            yield i, _slices(plan.blocks[i]), whole(0, x)
        return

    if parallel and kind == "process":
        if net_ref is not None:
            version, blob = net_ref
        else:
            blob = pickle.dumps(net)
            version = hashlib.sha1(blob).hexdigest()[:12]

    def sweep(level: int, x: np.ndarray, coarse, ids, halo: int):
        """Run one sweep's stage on blocks ``ids`` of ``x``, yielding
        ``(block_index, destination slices, core)`` as they complete."""
        blocks = _blocks(x.shape[2:], plan.tile)

        def dst(i: int) -> tuple[slice, ...]:
            return _slices(_halved(blocks[i]) if coarse is None else blocks[i])

        def run(i: int) -> np.ndarray:
            span = tracer.start("tile.compute", parent=trace_parent, tile=i,
                                level=level,
                                sweep="down" if coarse is None else "up")
            # The stage reads the halo-padded view in place: its first
            # conv copies it into column scratch anyway.
            try:
                return _run_stage(net, level,
                                  *_stage_inputs(x, coarse, blocks[i], halo))
            finally:
                span.finish()

        if not parallel or len(ids) <= 1:
            for i in ids:
                yield i, dst(i), run(i)
            return

        def remote_task(i: int):
            padded, slab, core = _stage_inputs(x, coarse, blocks[i], halo)
            # Contiguous copies: a view pickles its whole base.
            if slab is not None:
                slab = np.ascontiguousarray(slab)
            return (version, blob, level, np.ascontiguousarray(padded),
                    slab, core)

        # Dispatch in bounded waves so the parent never materializes
        # contiguous copies of every padded block at once — per wave it
        # holds ~2 blocks per worker, preserving the bounded-memory point
        # of tiling on exactly the megavoxel grids it exists for — and a
        # closed stream abandons at most one wave.  Within a wave results
        # stream out in completion order.
        wave = max(1, 2 * executor.workers)
        for w0 in range(0, len(ids), wave):
            wave_ids = ids[w0:w0 + wave]
            if kind == "process":
                wave_span = tracer.start("tile.wave", parent=trace_parent,
                                         first=w0, count=len(wave_ids))
                fn, tasks = _run_stage_task, [remote_task(i) for i in wave_ids]
            else:  # thread executor: share the model and the input
                wave_span = NULL_SPAN
                fn, tasks = run, wave_ids
            fan_out = tracer.start("executor.map", kind=kind,
                                   items=len(wave_ids),
                                   workers=executor.workers)
            try:
                for pos, core in executor.imap_unordered(fn, tasks):
                    i = wave_ids[pos]
                    yield i, dst(i), core
            finally:
                fan_out.finish()
                wave_span.finish()

    def gather(records, shape) -> np.ndarray:
        """Assemble one sweep's cores into a whole ``(N, C, *shape)``
        array: valid on the cores that ran — all the cone reads — and
        zero elsewhere."""
        out = None
        for _, dst, core in records:
            if out is None:
                out = np.zeros(core.shape[:2] + tuple(shape), core.dtype)
            out[(slice(None), slice(None)) + dst] = core
        return out

    cone, _ = _cone(net, plan.shape, plan.tile, plan.halo,
                    [plan.blocks[i] for i in indices])

    def below(level: int, x: np.ndarray, levels) -> np.ndarray:
        """The result of level ``level + 1`` from the input of ``level``:
        that level's down sweep, then the deeper levels — swept the same
        way, or whole from the first that fits in one block.  Only the
        coarse pyramid (this input and result per level) outlives a
        block; a level's skip is recomputed by its up sweep instead."""
        (down, _), *deeper = levels
        shape = tuple(s // 2 for s in x.shape[2:])
        x = gather(sweep(level, x, None, down,
                         _sweep_halo(net, level, up=False)), shape)
        level += 1
        if not deeper:
            return whole(level, x)
        return gather(sweep(level, x, below(level, x, deeper), deeper[0][1],
                            _sweep_halo(net, level, up=True)), shape)

    yield from sweep(0, x, below(0, x, cone), indices, plan.halo)


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
