"""Tiled inference: exactness against the single-pass forward."""

import collections
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MGDiffNet, PoissonProblem2D, PoissonProblem3D
from repro.autograd import Tensor, no_grad
from repro.backend import set_backend
from repro.core.inference import (apply_bc_masks, predict_batch,
                                  prepare_batch_inputs)
from repro.serve import (
    Executor, make_executor, plan_tiles, receptive_halo,
    stream_tiled_forward, stream_tiled_predict, tiled_forward, tiled_predict,
)
from repro.serve.telemetry.trace import NULL_SPAN
from repro.serve.tiling import _stage_inputs
from tests.peak_rss import PEAK_MB

RNG = np.random.default_rng(7)


def _omegas(n=3):
    return RNG.uniform(-3.0, 3.0, size=(n, 4))


def _wide(model, problem, omegas, tile, halo, executor=None):
    """``(tiled, full)`` bare-network fields of ``omegas``: over a plan
    whose ``halo`` the caller picks (the predict paths always take
    :func:`receptive_halo`), and by the single forward."""
    x = prepare_batch_inputs(problem, omegas)[0]
    plan = plan_tiles(x.shape[2:], tile, halo, 2 ** model.net.depth)
    with model.evaluating(), no_grad():
        return (tiled_forward(model.net, x, plan, executor=executor),
                model.net(Tensor(x)).numpy())


class TestPlan:
    def test_tile_covers_domain_without_overlap(self):
        plan = plan_tiles((16, 24), tile=8, halo=8, multiple=4)
        seen = np.zeros((16, 24), dtype=int)
        for block in plan.blocks:
            (x0, x1), (y0, y1) = block
            seen[x0:x1, y0:y1] += 1
        assert (seen == 1).all()
        assert plan.num_tiles == 2 * 3

    def test_ragged_last_tile_stays_aligned(self):
        plan = plan_tiles((24,), tile=16, halo=0, multiple=8)
        assert plan.blocks == (((0, 16),), ((16, 24),))

    def test_misaligned_tile_rejected(self):
        with pytest.raises(ValueError, match="multiple"):
            plan_tiles((16, 16), tile=6, halo=4, multiple=4)

    def test_misaligned_halo_rejected(self):
        # The halo is the emitting sweep's margin: it must be even (a
        # padded block maps onto whole cells of the level below), not a
        # multiple of 2**depth as the whole-network halo had to be.
        for halo in (-2, 1, 3):
            with pytest.raises(ValueError, match="halo"):
                plan_tiles((16, 16), tile=8, halo=halo, multiple=4)
        assert plan_tiles((16, 16), tile=8, halo=2, multiple=4).halo == 2

    def test_indivisible_shape_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            plan_tiles((18, 16), tile=8, halo=4, multiple=4)

    @given(multiple=st.sampled_from([1, 2, 4]),
           cells=st.lists(st.integers(1, 6), min_size=1, max_size=3),
           tile_cells=st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_cores_partition_any_domain(self, multiple, cells, tile_cells):
        shape = tuple(multiple * c for c in cells)
        tile = multiple * tile_cells
        plan = plan_tiles(shape, tile=tile, halo=0, multiple=multiple)
        seen = np.zeros(shape, dtype=int)
        for block in plan.blocks:
            for (start, stop), size in zip(block, shape):
                assert start % tile == 0
                assert stop == min(start + tile, size)
            seen[tuple(slice(a, b) for a, b in block)] += 1
        assert (seen == 1).all()
        assert plan.num_tiles == np.prod([-(-s // tile) for s in shape])


@st.composite
def _block_cases(draw):
    shape = tuple(draw(st.lists(st.integers(1, 9), min_size=1, max_size=3)))
    block = []
    for size in shape:
        start = draw(st.integers(0, size - 1))
        block.append((start, draw(st.integers(start + 1, size))))
    return shape, tuple(block), draw(st.integers(0, 8))


def _padded(x, block, halo):
    """``(padded block, core slices)`` of an up-sweep stage reading the
    array ``x`` (N, C, *shape)."""
    padded, _, core = _stage_inputs(x, x.shape[2:], x, block, halo)
    return padded, core


class TestPaddedBlock:
    @given(case=_block_cases())
    @settings(max_examples=100, deadline=None)
    def test_block_is_the_cropped_halo_view(self, case):
        shape, block, halo = case
        x = np.arange(np.prod(shape), dtype=np.float64).reshape((1, 1) + shape)
        padded, core = _padded(x, block, halo)
        box = tuple(slice(max(a - halo, 0), min(b + halo, size))
                    for (a, b), size in zip(block, shape))
        np.testing.assert_array_equal(padded, x[(slice(None),) * 2 + box])
        np.testing.assert_array_equal(
            padded[core], x[(slice(None),) * 2 + tuple(
                slice(a, b) for a, b in block)])
        assert not padded.flags.owndata and np.shares_memory(padded, x)

    def test_halo_is_neighbour_data_cropped_at_boundary(self):
        x = np.arange(8, dtype=np.float32).reshape(1, 1, 8)
        left, core = _padded(x, ((0, 4),), halo=1)
        np.testing.assert_array_equal(left[0, 0], [0, 1, 2, 3, 4])
        assert core[2] == slice(0, 4)
        right, core = _padded(x, ((4, 8),), halo=1)
        np.testing.assert_array_equal(right[0, 0], [3, 4, 5, 6, 7])
        assert core[2] == slice(1, 5)

    def test_zero_halo_is_the_core_view(self):
        x = np.arange(24, dtype=np.float64).reshape(1, 2, 3, 4)
        block, core = _padded(x, ((1, 2), (0, 4)), halo=0)
        assert core[2:] == (slice(0, 1), slice(0, 4))
        assert block.shape == (1, 2, 1, 4)
        assert not block.flags.owndata and np.shares_memory(block, x)
        np.testing.assert_array_equal(block, x[:, :, 1:2])


class TestReceptiveHalo:
    def test_halo_is_alignment_multiple(self):
        # Two k3 blocks (encoder + decoder) behind a k1 output conv: the
        # emitting sweep reads 2 cells whatever the depth — the coarse
        # levels pay their own halos in their own sweeps.
        for depth in (1, 2, 3):
            model = MGDiffNet(ndim=2, base_filters=4, depth=depth, rng=0)
            assert receptive_halo(model) == 2

    def test_adaptation_widens_halo(self):
        model = MGDiffNet(ndim=2, base_filters=4, depth=1, rng=0)
        before = receptive_halo(model)
        model.adapt(rng=1)     # + one k3 transposed conv and one k3 conv
        assert receptive_halo(model) == before + 2

    def test_halo_is_read_from_kernel_sizes(self):
        from repro.nn import ConvNd

        model = MGDiffNet(ndim=2, base_filters=4, depth=2, rng=0)
        net = model.net
        net.out_conv = ConvNd(2, 4, 1, kernel_size=5, padding=2, rng=0)
        assert receptive_halo(model) == 4
        net.downs[0] = ConvNd(2, 4, 4, kernel_size=3, stride=2, padding=1,
                              rng=0)
        with pytest.raises(ValueError, match="kernel == stride"):
            tiled_predict(model, PoissonProblem2D(16), _omegas(1), tile=8)


class TestExactness2D:
    @pytest.mark.parametrize("depth,resolution,tile",
                             [(1, 16, 2), (1, 16, 4), (1, 16, 8),
                              (2, 32, 4), (2, 32, 8), (2, 32, 16)])
    def test_tiled_matches_full_field(self, depth, resolution, tile):
        problem = PoissonProblem2D(resolution)
        model = MGDiffNet(ndim=2, base_filters=4, depth=depth, rng=1)
        omegas = _omegas()
        ref = predict_batch(model, problem, omegas)
        got = tiled_predict(model, problem, omegas, tile=tile)
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-5

    @pytest.mark.parametrize("extra", [0, 4, 8])
    def test_wider_halo_stays_exact(self, extra):
        model = MGDiffNet(ndim=2, base_filters=4, depth=2, rng=2)
        got, ref = _wide(model, PoissonProblem2D(16), _omegas(2), 8,
                         receptive_halo(model) + extra)
        assert np.abs(got - ref).max() <= 1e-5

    def test_ragged_tiling_exact(self):
        # 24 does not divide by tile 16: last tile is ragged but aligned.
        problem = PoissonProblem2D(24)
        model = MGDiffNet(ndim=2, base_filters=4, depth=1, rng=3)
        omegas = _omegas(2)
        ref = predict_batch(model, problem, omegas)
        got = tiled_predict(model, problem, omegas, tile=16)
        assert np.abs(got - ref).max() <= 1e-5

    def test_tiled_forward_of_a_bare_net(self):
        net = MGDiffNet(ndim=2, base_filters=4, depth=2, rng=6).net.eval()
        x = RNG.standard_normal((2, 1, 16, 16)).astype(np.float32)
        with no_grad():
            ref = net(Tensor(x)).numpy()
        whole = plan_tiles((16, 16), tile=16, halo=2, multiple=4)
        np.testing.assert_array_equal(tiled_forward(net, x, whole), ref)
        tiled = plan_tiles((16, 16), tile=4, halo=2, multiple=4)
        assert np.abs(tiled_forward(net, x, tiled) - ref).max() <= 1e-5

    def test_adapted_model_exact_with_default_halo(self):
        problem = PoissonProblem2D(16)
        model = MGDiffNet(ndim=2, base_filters=4, depth=1, rng=4)
        model.adapt(rng=5)
        omegas = _omegas(2)
        ref = predict_batch(model, problem, omegas)
        got = tiled_predict(model, problem, omegas, tile=4)
        assert np.abs(got - ref).max() <= 1e-5


class TestExactness3D:
    @pytest.mark.parametrize("tile", [2, 4, 8])
    def test_tiled_matches_full_field_3d(self, tile):
        problem = PoissonProblem3D(8)
        model = MGDiffNet(ndim=3, base_filters=4, depth=1, rng=1)
        omegas = _omegas(2)
        ref = predict_batch(model, problem, omegas)
        got = tiled_predict(model, problem, omegas, tile=tile)
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-5

    def test_single_omega_vector(self):
        problem = PoissonProblem3D(8)
        model = MGDiffNet(ndim=3, base_filters=4, depth=1, rng=2)
        omega = _omegas(1)[0]
        ref = predict_batch(model, problem, omega)
        got = tiled_predict(model, problem, omega, tile=4)
        assert got.shape == ref.shape == (1, 8, 8, 8)
        assert np.abs(got - ref).max() <= 1e-5


class TestRaggedHaloParallel:
    """Regression: ragged 3D grids whose halo exceeds the last tile's
    remainder, stitched through the process executor.

    A 12^3 grid with tile=8 leaves a remainder of 4 on every axis; with
    halo=8 each ragged edge tile's halo is wider than its core, so
    ``extract_padded_block`` crops against the domain boundary on *both*
    sides of the same axis.  The parallel-execution benchmark only
    exercises aligned grids, so this corner is pinned here: the stitched
    field must match the full-field forward, and every executor must
    stitch a byte-identical result to the sequential path.
    """

    @pytest.fixture(scope="class")
    def ragged3d(self):
        problem = PoissonProblem3D(12)
        model = MGDiffNet(ndim=3, base_filters=4, depth=1, rng=5)
        omegas = _omegas(2)
        serial, ref = _wide(model, problem, omegas, 8, 8)
        return problem, model, omegas, ref, serial

    def test_serial_stitch_exact_vs_full_field(self, ragged3d):
        problem, model, omegas, ref, serial = ragged3d
        # halo (8) > remainder (12 - 8 = 4) on every axis.
        assert serial.shape == ref.shape == (2, 1, 12, 12, 12)
        assert np.abs(serial - ref).max() <= 1e-5

    def test_process_executor_stitch_bitwise_equal(self, ragged3d):
        problem, model, omegas, _, serial = ragged3d
        with make_executor("process", 2) as executor:
            got, _ = _wide(model, problem, omegas, 8, 8, executor)
        np.testing.assert_array_equal(got, serial)

    def test_thread_executor_stitch_bitwise_equal(self, ragged3d):
        problem, model, omegas, _, serial = ragged3d
        with make_executor("thread", 2) as executor:
            got, _ = _wide(model, problem, omegas, 8, 8, executor)
        np.testing.assert_array_equal(got, serial)


class TestEvaluatedBlocks:
    """``stream_tiled_predict`` reads each level-0 block from the log-nu
    evaluator on its box and masks each core by its rows of the x-profile
    masks; the array path (the whole input, the stitched bare field, the
    masks broadcast once) must give the same bits on every executor."""

    @pytest.fixture(scope="class")
    def case(self):
        problem = PoissonProblem3D(16)
        model = MGDiffNet(ndim=3, base_filters=2, depth=2, rng=3)
        omegas = _omegas(2)
        log_nu, chi_int, u_bc = prepare_batch_inputs(problem, omegas)
        plan = plan_tiles(log_nu.shape[2:], 8, receptive_halo(model), 4)
        with model.evaluating():
            u_net = tiled_forward(model.net, log_nu, plan)
        return problem, model, omegas, apply_bc_masks(u_net, chi_int, u_bc)

    @pytest.mark.parametrize("kind", ["serial", "thread", "process"])
    def test_matches_the_array_path_bitwise(self, case, kind):
        problem, model, omegas, ref = case
        with make_executor(kind, 2) as executor:
            got = tiled_predict(model, problem, omegas, tile=8,
                                executor=executor)
        np.testing.assert_array_equal(got, ref)

    def test_a_tile_subset_matches_bitwise(self, case):
        problem, model, omegas, ref = case
        got = list(stream_tiled_predict(model, problem, omegas, tile=8,
                                        tiles=[6, 1]))
        assert [i for i, _, _ in got] == [6, 1]
        for _, dst, core in got:
            np.testing.assert_array_equal(core, ref[(slice(None),) + dst])


class _SweepCounter:
    """Tracer counting ``tile.compute`` spans per (level, sweep)."""

    def __init__(self):
        self.spans = collections.Counter()

    def start(self, name, parent=None, **attrs):
        if name == "tile.compute":
            self.spans[attrs["level"], attrs["sweep"]] += 1
        return NULL_SPAN


class TestResumeCost:
    """A ``tiles=`` subset runs only the blocks of each sweep in its
    dependency cone, so resuming a stream costs its cone, not a field."""

    def _spans(self, net, x, plan, tiles):
        counter = _SweepCounter()
        delivered = [i for i, _, _ in stream_tiled_forward(
            net, x, plan, tiles=tiles, tracer=counter)]
        assert sorted(delivered) == sorted(
            range(plan.num_tiles) if tiles is None else tiles)
        return dict(counter.spans)

    def test_one_tile_of_a_4x4x4_plan(self):
        net = MGDiffNet(ndim=3, base_filters=2, depth=1, rng=0).net.eval()
        x = RNG.standard_normal((1, 1, 32, 32, 32)).astype(np.float32)
        plan = plan_tiles((32, 32, 32), tile=8, halo=2, multiple=2)
        assert plan.num_tiles == 64
        # Full stream: 64 down blocks, the 16^3 bottleneck whole, 64 up
        # blocks — 129 spans.
        assert self._spans(net, x, plan, None) == {
            (0, "down"): 64, (1, "whole"): 1, (0, "up"): 64}
        # A corner tile: its core grown by the halo (2) is [0, 10)^3, the
        # bottleneck reads [0, 6)^3 coarse cells of it, i.e. the 2^3 down
        # blocks under [0, 12)^3 — 10 spans, not 129.
        assert self._spans(net, x, plan, [0]) == {
            (0, "down"): 8, (1, "whole"): 1, (0, "up"): 1}
        # An interior tile has neighbours on both sides: 3^3 down blocks.
        assert self._spans(net, x, plan, [21]) == {
            (0, "down"): 27, (1, "whole"): 1, (0, "up"): 1}

    def test_cone_narrows_level_by_level(self):
        # 2-D, depth 2, 8x8 tiles of 16: level 1 is 4x4 blocks, the 32^2
        # bottleneck runs whole.  161 spans for the field; the corner
        # tile needs one up block per level, the 2x2 level-1 down blocks
        # feeding the bottleneck under it and the 5x5 level-0 down blocks
        # feeding those — 32 spans.
        net = MGDiffNet(ndim=2, base_filters=2, depth=2, rng=0).net.eval()
        x = RNG.standard_normal((1, 1, 128, 128)).astype(np.float32)
        plan = plan_tiles((128, 128), tile=16, halo=2, multiple=4)
        assert self._spans(net, x, plan, None) == {
            (0, "down"): 64, (1, "down"): 16, (2, "whole"): 1,
            (1, "up"): 16, (0, "up"): 64}
        assert self._spans(net, x, plan, [0]) == {
            (0, "down"): 25, (1, "down"): 4, (2, "whole"): 1,
            (1, "up"): 1, (0, "up"): 1}


# Run in a fresh interpreter that reads its own peak (``VmHWM``, see
# tests/peak_rss.py): this process's peak, or a ``ru_maxrss`` inherited
# from it, would hide the field's.
FIELD_256 = PEAK_MB + """
import numpy as np
from repro import MGDiffNet, PoissonProblem3D
from repro.autograd import Tensor, no_grad
from repro.core.inference import prepare_batch_inputs
from repro.serve.tiling import tiled_predict

problem = PoissonProblem3D(256)
model = MGDiffNet(ndim=3, base_filters=4, depth=2, rng=1)
omega = np.random.default_rng(0).uniform(-3.0, 3.0, 4)
field = tiled_predict(model, problem, omega, tile=64)
peak = peak_mb()
assert field.shape == (1, 256, 256, 256) and np.isfinite(field).all()
# An interior tile against the plain forward of the 128^3 box around it:
# 32 cells of margin exceed the network's receptive radius.
log_nu, _, _ = prepare_batch_inputs(problem, omega)
with model.evaluating(), no_grad():
    box = model.net(Tensor(log_nu[:, :, 32:160, 32:160, 32:160])).numpy()
err = np.abs(field[0, 64:128, 64:128, 64:128]
             - box[0, 0, 32:96, 32:96, 32:96]).max()
assert err <= 1e-5, err
print(peak)
"""


@pytest.mark.slow
def test_a_256_cubed_field_fits_in_300_mb() -> None:
    """16.8 M voxels through the level-wise sweeps in one process: the
    stitched output, the coarse pyramid and the conv arena, with each
    block's input evaluated on its box and the masks x-profiles —
    measured 265 MB on a 2-vCPU x86-64 VM; the bound leaves 13 %.  With
    the whole field's float64/float32 input and whole-field masks it
    read 463 MB (474 MB earlier; 512 MB with a pooled scratch buffer per
    size class and the decoder's skip concatenated; the whole-network
    halo engine peaked at 709 MB)."""
    done = subprocess.run([sys.executable, "-c", FIELD_256], text=True,
                          capture_output=True, timeout=600)
    assert done.returncode == 0, done.stderr
    assert float(done.stdout) <= 300.0


def test_a_warm_tiled_field_allocates_no_skip_concatenation() -> None:
    """Every allocation of one warm 64^3 field by 32^3 tiles, traced: the
    cores, the coarse pyramid and each block's activations — but no
    ``concat([up, skip])`` per up-sweep block, which the decoder conv
    now reads as two channel parts, and no whole-field input or mask:
    each block's input is evaluated on its box.  Measured 4.33 MiB; the
    bound leaves 6 %.  With the whole input field and whole-field masks
    it read 5.18 MiB, and with the concatenation as well 5.90 MiB."""
    import tracemalloc

    model = MGDiffNet(ndim=3, base_filters=4, depth=2, rng=1)
    problem = PoissonProblem3D(64)
    omega = np.array([0.3, 1.5, 0.1, -1.2])
    tiled_predict(model, problem, omega, tile=32)     # plans, pool arena
    tracemalloc.start()
    try:
        field = tiled_predict(model, problem, omega, tile=32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert field.shape == (1, 64, 64, 64)
    assert peak < 4.6 * 2 ** 20, peak / 2 ** 20


@pytest.mark.parametrize("workers", [1, 2])
def test_a_warm_tiled_field_parks_one_arena_per_thread_and_nothing_else(
        monkeypatch, workers) -> None:
    """The sweep hands each stage its halo-padded view, so after a warm
    64^3 field by 32^3 tiles the pool holds exactly one buffer per thread
    that ran a conv: its arena, that thread's largest call's scratch in
    whole pages, and no copy of any block."""
    from repro.backend import NumpyBackend, conv_plan, get_pool, use_backend
    from repro.backend import registry
    from repro.backend.pool import ARENA_ALIGN

    # Thread workers resolve the creator's backend by name: a fresh
    # "numpy" gives every thread of this field, and no other, one pool.
    backend = NumpyBackend()
    monkeypatch.setitem(registry._BACKENDS, "numpy", backend)
    largest: dict[int, int] = collections.defaultdict(int)
    scratch = conv_plan._scratch

    def spy(dtype, *sizes):
        me = threading.get_ident()
        largest[me] = max(largest[me], sum(sizes) * np.dtype(dtype).itemsize)
        return scratch(dtype, *sizes)

    monkeypatch.setattr(conv_plan, "_scratch", spy)
    model = MGDiffNet(ndim=3, base_filters=4, depth=2, rng=1)
    problem = PoissonProblem3D(64)
    omega = np.array([0.3, 1.5, 0.1, -1.2])
    with use_backend(backend):
        executor = make_executor("thread" if workers > 1 else "serial",
                                 workers=workers)
        try:
            for _ in range(2):
                tiled_predict(model, problem, omega, tile=32,
                              executor=executor)
            stats = get_pool().stats.snapshot()     # workers still alive
        finally:
            executor.close()
    arenas = sum(-(-n // ARENA_ALIGN) * ARENA_ALIGN for n in largest.values())
    assert stats.bytes_pooled == stats.high_water_bytes == arenas
    assert stats.evictions == 0


class _InlineProcessExecutor(Executor):
    """Executor that *claims* to be a process pool but runs inline (the
    base class's serial ``imap_unordered``) — the tiled path takes its
    pickled-blob branch deterministically, with no real multiprocessing
    underneath."""

    kind = "process"
    workers = 2

    def map(self, fn, items):
        return [fn(item) for item in items]

    def warm(self):
        pass

    def close(self):
        pass


class TestNetBlobReuse:
    """The ROADMAP 'persistent process fleet' fix: a serving process
    must serialize each model once per content version, not once per
    tiled call (the blob is the payload every tile task replays)."""

    def _counting_dumps(self, monkeypatch):
        import pickle

        from repro.nn.module import Module

        counted = []
        real_dumps = pickle.dumps

        def counting(obj, *args, **kwargs):
            if isinstance(obj, Module):
                counted.append(type(obj).__name__)
            return real_dumps(obj, *args, **kwargs)

        monkeypatch.setattr(pickle, "dumps", counting)
        return counted

    def test_server_pickles_net_once_per_version(self, monkeypatch):
        from repro.serve import ModelRegistry, PredictionServer, ServerConfig

        problem = PoissonProblem2D(16)
        model = MGDiffNet(ndim=2, base_filters=4, depth=1, rng=6)
        registry = ModelRegistry()
        registry.register_model("m", model, problem)
        server = PredictionServer(registry, ServerConfig(
            tile=8, cache_bytes=0))
        server._executor = _InlineProcessExecutor()
        counted = self._counting_dumps(monkeypatch)

        base = _omegas(1)[0]
        for i in range(3):                    # three tiled forwards...
            u = server.predict("m", base + 0.1 * i)
        assert counted.count("UNet") == 1     # ...one serialization
        assert np.abs(u - predict_batch(
            model, problem, base + 0.2)[0]).max() <= 1e-5

    def test_new_version_pickles_again(self, monkeypatch):
        """A different checkpoint under the same name is a new content
        version: it gets its own (single) serialization."""
        from repro.serve import ModelRegistry, PredictionServer, ServerConfig

        problem = PoissonProblem2D(16)
        registry = ModelRegistry()
        registry.register_model(
            "m", MGDiffNet(ndim=2, base_filters=4, depth=1, rng=6), problem)
        server = PredictionServer(registry, ServerConfig(
            tile=8, cache_bytes=0))
        server._executor = _InlineProcessExecutor()
        counted = self._counting_dumps(monkeypatch)

        server.predict("m", _omegas(1)[0])
        registry.register_model(
            "m", MGDiffNet(ndim=2, base_filters=4, depth=1, rng=7), problem)
        server.predict("m", _omegas(1)[0])
        server.predict("m", _omegas(1)[0] + 0.5)
        assert counted.count("UNet") == 2     # one per version, not per call
        # The swapped-out version's blob is pruned — hot swaps must not
        # leak one model-sized blob per retrain.
        assert len(server._net_blobs) == 1

    def test_bare_tiled_predict_with_net_ref_skips_pickling(
            self, monkeypatch):
        import pickle

        problem = PoissonProblem2D(16)
        model = MGDiffNet(ndim=2, base_filters=4, depth=1, rng=6)
        omegas = _omegas(2)
        serial = tiled_predict(model, problem, omegas, tile=8)
        # The blob must capture the *serving* (eval) mode — exactly what
        # a registry entry pins before the server ever builds a net_ref.
        model.eval()
        blob = pickle.dumps(model.net)
        counted = self._counting_dumps(monkeypatch)
        got = tiled_predict(model, problem, omegas, tile=8,
                            executor=_InlineProcessExecutor(),
                            net_ref=("v0", blob))
        assert counted == []                  # the cached blob was replayed
        np.testing.assert_array_equal(got, serial)


def _assemble(records, shape, batch, dtype=np.float64):
    """Stitch tiling-layer records (core shape ``(B, *core)``)."""
    out = np.empty((batch,) + shape, dtype=dtype)
    ids = []
    for i, sl, core in records:
        out[(slice(None),) + sl] = core
        ids.append(i)
    return out, ids


class TestStreamTiling:
    """:func:`stream_tiled_predict` yields ``(tile_index, core_slices,
    core)`` records whose assembly is *bitwise* equal to
    :func:`tiled_predict`, whatever the executor, tile raggedness or
    backend; tile indices are deterministic even when completion order
    is not."""

    @pytest.fixture(scope="class")
    def small2d(self):
        problem = PoissonProblem2D(16)
        model = MGDiffNet(ndim=2, base_filters=4, depth=1, rng=1)
        omegas = _omegas(2)
        ref = tiled_predict(model, problem, omegas, tile=8)
        return problem, model, omegas, ref

    def test_serial_assembly_bitwise_equal(self, small2d):
        problem, model, omegas, ref = small2d
        got, ids = _assemble(
            stream_tiled_predict(model, problem, omegas, tile=8),
            (16, 16), 2)
        np.testing.assert_array_equal(got, ref)
        assert sorted(ids) == list(range(4))

    def test_thread_assembly_bitwise_equal(self, small2d):
        problem, model, omegas, ref = small2d
        with make_executor("thread", 2) as executor:
            got, ids = _assemble(
                stream_tiled_predict(model, problem, omegas, tile=8,
                                     executor=executor),
                (16, 16), 2)
        np.testing.assert_array_equal(got, ref)
        assert sorted(ids) == list(range(4))

    def test_process_assembly_bitwise_equal(self, small2d):
        problem, model, omegas, ref = small2d
        with make_executor("process", 2) as executor:
            got, ids = _assemble(
                stream_tiled_predict(model, problem, omegas, tile=8,
                                     executor=executor),
                (16, 16), 2)
        np.testing.assert_array_equal(got, ref)
        assert sorted(ids) == list(range(4))

    def test_ragged_halo_wider_than_remainder(self):
        # 12^3 with tile=8 leaves remainder 4 < halo 8 on every axis:
        # the ragged corner the aligned benchmarks never see.
        problem = PoissonProblem3D(12)
        model = MGDiffNet(ndim=3, base_filters=4, depth=1, rng=5)
        omegas = _omegas(2)
        exact, ref = _wide(model, problem, omegas, 8, 8)
        x = prepare_batch_inputs(problem, omegas)[0]
        with model.evaluating():
            got, ids = _assemble(
                ((i, (slice(None),) + sl, core) for i, sl, core in
                 stream_tiled_forward(model.net, x,
                                      plan_tiles((12,) * 3, 8, 8, 2))),
                (1, 12, 12, 12), 2, np.float32)
        np.testing.assert_array_equal(got, exact)
        assert np.abs(got - ref).max() <= 1e-5
        assert sorted(ids) == list(range(8))

    def test_single_tile_stream(self):
        # The whole grid in one tile: exactly one record, full cover.
        problem = PoissonProblem2D(16)
        model = MGDiffNet(ndim=2, base_filters=4, depth=1, rng=2)
        omegas = _omegas(1)
        records = list(stream_tiled_predict(model, problem, omegas,
                                            tile=16))
        assert len(records) == 1
        i, sl, core = records[0]
        assert i == 0 and core.shape == (1, 16, 16)
        np.testing.assert_array_equal(
            core, tiled_predict(model, problem, omegas, tile=16))

    def test_tile_subset_yields_only_requested(self, small2d):
        problem, model, omegas, ref = small2d
        records = list(stream_tiled_predict(model, problem, omegas,
                                            tile=8, tiles=[3, 1]))
        assert sorted(i for i, _, _ in records) == [1, 3]
        for i, sl, core in records:
            np.testing.assert_array_equal(core,
                                          ref[(slice(None),) + sl])

    @pytest.mark.parametrize("tiles", [[0, 99], [4], [-1]])
    def test_bad_tile_subset_rejected(self, small2d, tiles):
        # Four tiles: an index past the end, or negative (which would
        # otherwise wrap to the last tile), names the plan's bound.
        problem, model, omegas, _ = small2d
        with pytest.raises(ValueError, match="out of range for 4 tiles"):
            list(stream_tiled_predict(model, problem, omegas, tile=8,
                                      tiles=tiles))

    def test_duplicate_tile_subset_rejected(self, small2d):
        # Exactly-once at the source: a repeated index would deliver the
        # tile twice.
        problem, model, omegas, _ = small2d
        with pytest.raises(ValueError, match="duplicate tile"):
            list(stream_tiled_predict(model, problem, omegas, tile=8,
                                      tiles=[0, 0]))

    def test_closed_stream_stops_computing(self):
        # The emitting (level-0 up) sweep's 16 blocks go out over 2
        # thread workers in waves of 4: closing after the first record
        # cancels what has not started, so at most that one wave is ever
        # computed.  (The down sweep and the coarse level run in full
        # before the first record can leave.)
        class CountingTracer:
            def __init__(self):
                self.sweeps = []
                self.lock = threading.Lock()

            def start(self, name, parent=None, **attrs):
                if name == "tile.compute":
                    with self.lock:
                        self.sweeps.append(attrs["sweep"])
                return NULL_SPAN

        net = MGDiffNet(ndim=2, base_filters=2, depth=1, rng=0).net.eval()
        plan = plan_tiles((32, 32), tile=8, halo=2, multiple=2)
        assert plan.num_tiles == 16
        tracer = CountingTracer()
        with make_executor("thread", 2) as executor:
            stream = stream_tiled_forward(
                net, np.zeros((1, 1, 32, 32), np.float32), plan,
                executor=executor, tracer=tracer)
            next(stream)
            stream.close()
        # The executor has drained: whatever was running has finished.
        assert tracer.sweeps.count("down") == 16
        assert 1 <= tracer.sweeps.count("up") <= 4

    def test_lazy_backend_parity_bitwise(self, small2d):
        problem, model, omegas, _ = small2d
        set_backend("lazy")
        try:
            ref = tiled_predict(model, problem, omegas, tile=8)
            got, _ = _assemble(
                stream_tiled_predict(model, problem, omegas, tile=8),
                (16, 16), 2)
        finally:
            set_backend("numpy")
        np.testing.assert_array_equal(got, ref)

    def test_early_close_restores_train_mode(self, small2d):
        problem, model, omegas, _ = small2d
        gen = stream_tiled_predict(model, problem, omegas, tile=8)
        next(gen)
        assert not model.net.training      # eval pinned while consuming
        gen.close()
        assert model.net.training          # restored on early close
