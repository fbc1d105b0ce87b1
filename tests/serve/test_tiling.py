"""Tiled inference: exactness against the single-pass forward."""

import collections
import subprocess
import sys

import numpy as np
import pytest

from repro import MGDiffNet, PoissonProblem2D, PoissonProblem3D
from repro.core.inference import predict_batch
from repro.serve import (
    Executor, make_executor, plan_tiles, receptive_halo,
    stream_tiled_forward, tiled_predict,
)
from repro.serve.telemetry.trace import NULL_SPAN
from tests.peak_rss import PEAK_MB

RNG = np.random.default_rng(7)


def _omegas(n=3):
    return RNG.uniform(-3.0, 3.0, size=(n, 4))


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
        problem = PoissonProblem2D(16)
        model = MGDiffNet(ndim=2, base_filters=4, depth=2, rng=2)
        omegas = _omegas(2)
        ref = predict_batch(model, problem, omegas)
        halo = receptive_halo(model) + extra
        got = tiled_predict(model, problem, omegas, tile=8, halo=halo)
        assert np.abs(got - ref).max() <= 1e-5

    def test_ragged_tiling_exact(self):
        # 24 does not divide by tile 16: last tile is ragged but aligned.
        problem = PoissonProblem2D(24)
        model = MGDiffNet(ndim=2, base_filters=4, depth=1, rng=3)
        omegas = _omegas(2)
        ref = predict_batch(model, problem, omegas)
        got = tiled_predict(model, problem, omegas, tile=16)
        assert np.abs(got - ref).max() <= 1e-5

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
        ref = predict_batch(model, problem, omegas)
        serial = tiled_predict(model, problem, omegas, tile=8, halo=8)
        return problem, model, omegas, ref, serial

    def test_serial_stitch_exact_vs_full_field(self, ragged3d):
        problem, model, omegas, ref, serial = ragged3d
        # halo (8) > remainder (12 - 8 = 4) on every axis.
        assert serial.shape == ref.shape == (2, 12, 12, 12)
        assert np.abs(serial - ref).max() <= 1e-5

    def test_process_executor_stitch_bitwise_equal(self, ragged3d):
        problem, model, omegas, _, serial = ragged3d
        with make_executor("process", 2) as executor:
            got = tiled_predict(model, problem, omegas, tile=8, halo=8,
                                executor=executor)
        np.testing.assert_array_equal(got, serial)

    def test_thread_executor_stitch_bitwise_equal(self, ragged3d):
        problem, model, omegas, _, serial = ragged3d
        with make_executor("thread", 2) as executor:
            got = tiled_predict(model, problem, omegas, tile=8, halo=8,
                                executor=executor)
        np.testing.assert_array_equal(got, serial)


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
def test_a_256_cubed_field_fits_in_640_mb() -> None:
    """16.8 M voxels through the level-wise sweeps in one process: the
    float64/float32 input fields, the masks, the stitched output and the
    coarse pyramid — measured 536 MB here (the whole-network halo engine
    peaked at 709 MB on the same field)."""
    done = subprocess.run([sys.executable, "-c", FIELD_256], text=True,
                          capture_output=True, timeout=600)
    assert done.returncode == 0, done.stderr
    assert float(done.stdout) <= 640.0


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
