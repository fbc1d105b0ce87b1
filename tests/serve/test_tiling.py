"""Tiled inference: exactness against the single-pass forward."""

import numpy as np
import pytest

from repro import MGDiffNet, PoissonProblem2D, PoissonProblem3D
from repro.core.inference import predict_batch
from repro.serve import (
    Executor, make_executor, plan_tiles, receptive_halo, tiled_predict,
)

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
        with pytest.raises(ValueError, match="halo"):
            plan_tiles((16, 16), tile=8, halo=2, multiple=4)

    def test_indivisible_shape_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            plan_tiles((18, 16), tile=8, halo=4, multiple=4)


class TestReceptiveHalo:
    def test_halo_is_alignment_multiple(self):
        for depth in (1, 2, 3):
            model = MGDiffNet(ndim=2, base_filters=4, depth=depth, rng=0)
            halo = receptive_halo(model)
            assert halo % (2 ** depth) == 0 and halo > 0

    def test_adaptation_widens_halo(self):
        model = MGDiffNet(ndim=2, base_filters=4, depth=1, rng=0)
        before = receptive_halo(model)
        model.adapt(rng=1)
        assert receptive_halo(model) >= before


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
