"""Streaming tiled inference: every layer, every edge.

The contract under test, at each layer of the stack:

* tiling — :func:`stream_tiled_predict` yields ``(tile_index,
  core_slices, core)`` records whose assembly is *bitwise* equal to
  :func:`tiled_predict`, whatever the executor, tile raggedness or
  backend; tile indices are deterministic even when completion order
  is not.
* server — ``submit_stream`` routes records through the existing
  priority/deadline/backpressure machinery: per-tile deadline checks
  (a dead stream carries ``tiles_delivered``), cache hits stream from
  the stored field, bounded buffers backpressure the producing worker.
* fleet — ``ShardedFleet.stream`` fails over mid-stream: delivered
  tiles are never re-sent, the replacement replica resumes from the
  undelivered tile set, and the conservation law (lost == 0) holds.
* asyncio — ``AsyncPredictionServer.stream`` is the same stream as an
  ``async for``, early exit closing the producer.
"""

import asyncio
import threading
import time

import numpy as np
import pytest

from repro import MGDiffNet, PoissonProblem2D, PoissonProblem3D
from repro.backend import set_backend
from repro.core.inference import predict_batch
from repro.serve import (
    AsyncPredictionServer, DeadlineExceeded, FleetConfig, ModelRegistry,
    PredictionServer, ServerConfig, ShardedFleet, make_executor,
    plan_tiles, stream_tiled_forward, stream_tiled_predict, tiled_predict,
)
from repro.serve.telemetry.trace import NULL_SPAN

RNG = np.random.default_rng(19)


def _omegas(n=2):
    return RNG.uniform(-3.0, 3.0, size=(n, 4))


def _assemble(records, shape, batch, dtype=np.float64):
    """Stitch tiling-layer records (core shape ``(B, *core)``)."""
    out = np.empty((batch,) + shape, dtype=dtype)
    ids = []
    for i, sl, core in records:
        out[(slice(None),) + sl] = core
        ids.append(i)
    return out, ids


# --------------------------------------------------------------------- #
# Tiling layer
# --------------------------------------------------------------------- #
class TestStreamTiling:
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
        ref = predict_batch(model, problem, omegas)
        exact = tiled_predict(model, problem, omegas, tile=8, halo=8)
        got, ids = _assemble(
            stream_tiled_predict(model, problem, omegas, tile=8, halo=8),
            (12, 12, 12), 2)
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

    def test_bad_tile_subset_rejected(self, small2d):
        problem, model, omegas, _ = small2d
        with pytest.raises(ValueError, match="tile"):
            list(stream_tiled_predict(model, problem, omegas, tile=8,
                                      tiles=[0, 99]))

    def test_duplicate_tile_subset_rejected(self, small2d):
        # Exactly-once at the source: a repeated index would deliver the
        # tile twice while ``TileStream.num_tiles`` counts it twice.
        problem, model, omegas, _ = small2d
        with pytest.raises(ValueError, match="duplicate tile"):
            list(stream_tiled_predict(model, problem, omegas, tile=8,
                                      tiles=[0, 0]))
        registry = ModelRegistry()   # (pins eval: not the shared model)
        registry.register_model(
            "m", MGDiffNet(ndim=2, base_filters=4, depth=1, rng=1), problem)
        server = PredictionServer(registry, ServerConfig(tile=8))
        with pytest.raises(ValueError, match="duplicate tile"):
            server.submit_stream("m", omegas[0], tiles=[1, 2, 1])
        with pytest.raises(ValueError, match="out of range"):
            server.submit_stream("m", omegas[0], tiles=[4])

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


# --------------------------------------------------------------------- #
# Server layer
# --------------------------------------------------------------------- #
@pytest.fixture()
def server3d():
    problem = PoissonProblem3D(16)
    model = MGDiffNet(ndim=3, base_filters=4, depth=1, rng=3)
    registry = ModelRegistry()
    registry.register_model("m", model, problem)
    server = PredictionServer(registry, ServerConfig(
        max_batch=4, max_wait_ms=0.0, workers=1, cache_bytes=1 << 20,
        tile=8, halo=4))
    return server, model, problem


class TestServerStream:
    def test_push_mode_parity_and_counters(self, server3d):
        server, model, problem = server3d
        omega = _omegas(1)[0]
        exact = tiled_predict(model, problem, omega, tile=8, halo=4)[0]
        out = np.empty_like(exact)
        with server:
            stream = server.submit_stream("m", omega)
            assert stream.num_tiles == 8
            for i, sl, core in stream:
                out[sl] = core
        np.testing.assert_array_equal(out, exact)
        assert stream.delivered == 8
        assert server.stats.streams == 1
        assert server.stats.stream_tiles == 8

    def test_cache_hit_streams_stored_field(self, server3d):
        server, model, problem = server3d
        omega = _omegas(1)[0]
        with server:
            full = server.predict("m", omega)      # fills the cache
            hits0 = server.cache.stats.hits
            out = np.empty_like(full)
            for i, sl, core in server.submit_stream("m", omega):
                out[sl] = core
        np.testing.assert_array_equal(out, full)
        assert server.cache.stats.hits == hits0 + 1
        assert server.stats.tiled_forwards == 1    # no recompute

    def test_dead_stream_carries_tiles_delivered(self, server3d):
        server, model, problem = server3d
        with server:
            with pytest.raises(DeadlineExceeded) as err:
                for _ in server.submit_stream("m", _omegas(1)[0],
                                              deadline_s=1e-4):
                    pass
        assert err.value.tiles_delivered == 0
        assert "0 stream tiles delivered" in str(err.value)
        assert server.stats.expired == 1

    def test_slow_consumer_backpressures_producer(self, server3d):
        """With a bounded per-stream buffer the producer may run at
        most ``buffer + in-flight slack`` tiles ahead of the consumer,
        never the whole stream."""
        server, model, problem = server3d
        produced = []
        inner = server._stream_tiles

        def counting(*args, **kwargs):
            for rec in inner(*args, **kwargs):
                produced.append(rec[0])
                yield rec

        server._stream_tiles = counting
        max_lead = 0
        with server:
            stream = server.submit_stream("m", _omegas(1)[0],
                                          buffer_tiles=1)
            consumed = 0
            for _ in stream:
                consumed += 1
                time.sleep(0.05)       # slow consumer
                max_lead = max(max_lead, len(produced) - consumed)
        assert consumed == 8
        # buffer (1) + the record in the producer's hand (1): the pool
        # never raced ahead of the consumer beyond the bound.
        assert max_lead <= 2

    def test_stream_not_running_pull_mode(self, server3d):
        server, model, problem = server3d
        omega = _omegas(1)[0]
        exact = tiled_predict(model, problem, omega, tile=8, halo=4)[0]
        out = np.empty_like(exact)
        for i, sl, core in server.submit_stream("m", omega):
            out[sl] = core
        np.testing.assert_array_equal(out, exact)

    def test_stream_requests_never_fuse(self, server3d):
        from repro.serve import PredictRequest

        server, _, _ = server3d
        a = PredictRequest("m", _omegas(1)[0], 16, None, stream=object())
        b = PredictRequest("m", _omegas(1)[0], 16, None, stream=object())
        assert a.group_key() != b.group_key()


# --------------------------------------------------------------------- #
# Fleet layer
# --------------------------------------------------------------------- #
def _streaming_fleet(model, problem) -> ShardedFleet:
    fleet = ShardedFleet(FleetConfig(
        shards=2, replicas=2,
        server=ServerConfig(max_batch=4, max_wait_ms=0.0, workers=1,
                            cache_bytes=0, tile=8, halo=4)))
    fleet.register_model("m", model, problem)
    return fleet


class TestFleetStream:
    @pytest.fixture(scope="class")
    def served(self):
        problem = PoissonProblem3D(16)
        model = MGDiffNet(ndim=3, base_filters=4, depth=1, rng=4)
        return model, problem

    def test_clean_stream_conserved(self, served):
        model, problem = served
        fleet = _streaming_fleet(model, problem)
        omega = _omegas(1)[0]
        exact = tiled_predict(model, problem, omega, tile=8, halo=4)[0]
        out = np.empty_like(exact)
        with fleet:
            for i, sl, core in fleet.stream("m", omega):
                out[sl] = core
        np.testing.assert_array_equal(out, exact)
        s = fleet.stats
        assert s.streams == 1 and s.served == 1
        assert s.stream_tiles_delivered == 8
        assert s.stream_resumed == 0
        assert s.lost == 0

    def test_mid_stream_kill_resumes_without_resend(self, served):
        model, problem = served
        fleet = _streaming_fleet(model, problem)
        armed = {"live": True}
        for shard in fleet.shards:
            inner = shard.server._stream_tiles

            def dying(*args, _inner=inner, **kwargs):
                for n, rec in enumerate(_inner(*args, **kwargs)):
                    if armed["live"] and n == 2:
                        armed["live"] = False
                        raise OSError("scripted mid-stream death")
                    yield rec

            shard.server._stream_tiles = dying
        omega = _omegas(1)[0]
        exact = tiled_predict(model, problem, omega, tile=8, halo=4)[0]
        out = np.empty_like(exact)
        seen = []
        with fleet:
            for i, sl, core in fleet.stream("m", omega):
                seen.append(i)
                out[sl] = core
        assert not armed["live"]                  # the kill fired
        assert sorted(seen) == list(range(8))     # all tiles, exactly once
        assert len(seen) == len(set(seen))        # none re-sent
        np.testing.assert_array_equal(out, exact)
        s = fleet.stats
        assert s.stream_resumed == 1
        assert s.stream_tiles_delivered == 8
        assert s.failovers == 1
        assert s.served == 1 and s.lost == 0

    def test_abandoned_stream_counts_cancelled(self, served):
        model, problem = served
        fleet = _streaming_fleet(model, problem)
        with fleet:
            it = fleet.stream("m", _omegas(1)[0])
            next(it)
            it.close()                            # client walks away
        s = fleet.stats
        assert s.cancelled == 1
        assert s.lost == 0


# --------------------------------------------------------------------- #
# Asyncio layer
# --------------------------------------------------------------------- #
class TestAioStream:
    def test_async_for_parity(self, server3d):
        server, model, problem = server3d
        omega = _omegas(1)[0]
        exact = tiled_predict(model, problem, omega, tile=8, halo=4)[0]
        out = np.empty_like(exact)

        async def consume():
            async with AsyncPredictionServer(server) as aserver:
                async for i, sl, core in aserver.stream(
                        "m", omega, buffer_tiles=1):
                    out[sl] = core

        asyncio.run(consume())
        np.testing.assert_array_equal(out, exact)

    def test_early_break_closes_stream(self, server3d):
        server, model, problem = server3d

        async def consume_two():
            taken = 0
            async with AsyncPredictionServer(server) as aserver:
                async for _ in aserver.stream("m", _omegas(1)[0],
                                              buffer_tiles=1):
                    taken += 1
                    if taken == 2:
                        break
            return taken

        assert asyncio.run(consume_two()) == 2
        # The producer was released: the worker thread is not stuck
        # emitting into a closed buffer (close() drained + notified).
        for t in threading.enumerate():
            assert not t.name.startswith("stream-leak")
