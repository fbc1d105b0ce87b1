"""Executor abstraction and parallel tiled inference.

The contract under test: serial, thread and process executors produce
*identical* stitched fields (tiles are independent and stitching is
order-deterministic), process workers re-initialise their backend, and
the server's worker fleet runs correctly over every executor kind.
"""

import os
import signal
from concurrent.futures import BrokenExecutor

import numpy as np
import pytest

from repro import MGDiffNet, PoissonProblem2D
from repro.core.inference import predict_batch
from repro.serve import (
    EXECUTOR_KINDS, Executor, ModelRegistry, PredictionServer,
    ProcessExecutor, ServerConfig, ThreadExecutor, make_executor,
    tiled_predict,
)
from repro.serve.executor import default_workers

from tests.distributed.test_rank_processes import _children, _deadline

RNG = np.random.default_rng(23)


def _square(x):
    return x * x


def _backend_name(_):
    from repro.backend import get_backend

    return get_backend().name


def _backend_inherited(_):
    from repro.backend import get_backend

    return get_backend().name, hasattr(get_backend(), "from_parent")


def _default_dtype(_):
    from repro.backend import get_default_dtype

    return np.dtype(get_default_dtype()).name


def _kill_own_worker(i):
    if i == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return i


def _pool_identity(_):
    import os
    import threading

    return (os.getpid(), threading.current_thread().name)


@pytest.fixture(scope="module")
def served():
    problem = PoissonProblem2D(32)
    model = MGDiffNet(ndim=2, base_filters=4, depth=2, rng=3)
    registry = ModelRegistry()
    registry.register_model("m", model, problem)
    return model, problem, registry


class TestConstruction:
    def test_kinds(self):
        assert make_executor("serial").kind == "serial"
        assert make_executor("thread", 2).kind == "thread"
        assert make_executor("process", 2).kind == "process"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown executor"):
            make_executor("gpu-cluster")

    def test_default_workers_positive(self):
        assert default_workers() >= 1

    def test_worker_counts(self):
        assert Executor().workers == 1
        assert ThreadExecutor(3).workers == 3
        assert ProcessExecutor(2).workers == 2

    def test_close_is_idempotent(self):
        for kind in EXECUTOR_KINDS:
            ex = make_executor(kind, 2)
            ex.close()
            ex.close()


class TestMapSemantics:
    @pytest.mark.parametrize("kind", EXECUTOR_KINDS)
    def test_ordered_results(self, kind):
        with make_executor(kind, 2) as ex:
            assert ex.map(_square, range(7)) == [i * i for i in range(7)]

    @pytest.mark.parametrize("kind", EXECUTOR_KINDS)
    def test_empty_input(self, kind):
        with make_executor(kind, 2) as ex:
            assert ex.map(_square, []) == []

    def test_thread_workers_pin_creator_backend(self):
        from repro.backend import use_backend

        with use_backend("lazy"):
            ex = ThreadExecutor(2)
        with ex:
            names = ex.map(_backend_name, range(4))
        assert set(names) == {"lazy"}

    def test_process_workers_reinit_backend(self):
        from repro.backend import get_backend, use_backend

        # Memoize the parent's LazyBackend first: a forked child must
        # build its own, not activate the inherited instance (whose locks
        # and pending registry do not survive the fork).
        with use_backend("lazy"):
            get_backend().from_parent = True
            ex = ProcessExecutor(2)
        with ex:
            seen = ex.map(_backend_inherited, range(4))
        assert set(seen) == {("lazy", False)}

    @pytest.mark.parametrize("kind", ["thread", "process"])
    def test_workers_run_the_creators_dtype(self, kind):
        from repro.backend import dtype_scope

        with dtype_scope("float64"):
            ex = make_executor(kind, 2)
        with ex:
            assert set(ex.map(_default_dtype, range(4))) == {"float64"}

    @pytest.mark.parametrize("kind", ["thread", "process"])
    def test_workers_keep_the_backend_they_were_created_under(self, kind):
        # Captured at construction: the creator switching afterwards, or
        # the pool starting outside the creator's scope, changes nothing.
        from repro.backend import use_backend

        with use_backend("lazy"):
            ex = make_executor(kind, 2)
        with use_backend("numpy"), ex:
            assert set(ex.map(_backend_name, range(4))) == {"lazy"}

    def test_process_tasks_run_in_other_processes(self):
        import os

        with ProcessExecutor(2) as ex:
            pids = {pid for pid, _ in ex.map(_pool_identity, range(6))}
        assert os.getpid() not in pids


class TestDeadWorker:
    def test_a_killed_worker_fails_the_call_and_the_next_call_works(self):
        """A task that kills its own worker process: the call raises in
        bounded time, no worker is left behind, and the executor builds
        a fresh pool for the next call."""
        before = _children()
        with _deadline(20), ProcessExecutor(2) as ex:
            with pytest.raises(BrokenExecutor):
                ex.map(_kill_own_worker, range(4))
            assert _children() <= before
            assert ex.map(_square, range(4)) == [0, 1, 4, 9]
        assert _children() <= before


class TestTiledParity:
    """Serial vs thread vs process give identical stitched fields."""

    @pytest.mark.parametrize("kind", ["thread", "process"])
    def test_parallel_matches_sequential(self, served, kind):
        model, problem, _ = served
        omegas = RNG.uniform(-3, 3, size=(2, 4))
        sequential = tiled_predict(model, problem, omegas, tile=8)
        with make_executor(kind, 2) as ex:
            parallel = tiled_predict(model, problem, omegas, tile=8,
                                     executor=ex)
        np.testing.assert_array_equal(parallel, sequential)

    def test_parallel_matches_full_forward(self, served):
        model, problem, _ = served
        omegas = RNG.uniform(-3, 3, size=(2, 4))
        ref = predict_batch(model, problem, omegas)
        with make_executor("process", 2) as ex:
            got = tiled_predict(model, problem, omegas, tile=8, executor=ex)
        assert np.abs(got - ref).max() <= 1e-5

    def test_ragged_grid_parallel_exact(self):
        problem = PoissonProblem2D(24)
        model = MGDiffNet(ndim=2, base_filters=4, depth=1, rng=5)
        omegas = RNG.uniform(-3, 3, size=(2, 4))
        sequential = tiled_predict(model, problem, omegas, tile=16)
        with make_executor("thread", 2) as ex:
            parallel = tiled_predict(model, problem, omegas, tile=16,
                                     executor=ex)
        np.testing.assert_array_equal(parallel, sequential)

    def test_serial_executor_is_neutral(self, served):
        model, problem, _ = served
        omegas = RNG.uniform(-3, 3, size=(2, 4))
        sequential = tiled_predict(model, problem, omegas, tile=8)
        got = tiled_predict(model, problem, omegas, tile=8,
                            executor=make_executor("serial"))
        np.testing.assert_array_equal(got, sequential)


class TestServerExecutors:
    @pytest.mark.parametrize("kind", ["thread", "process"])
    def test_server_pool_runs_the_backend_it_was_started_under(self, served,
                                                               kind):
        # No per-server backend option: the pool is built when the server
        # starts and captures the starting thread's backend.
        from repro.backend import use_backend

        *_, registry = served
        server = PredictionServer(registry, ServerConfig(workers=2,
                                                         executor=kind))
        try:
            with use_backend("lazy"):
                server.start()
            assert set(server.executor.map(_backend_name, range(4))) == {
                "lazy"}
        finally:
            server.close()

    @pytest.mark.parametrize("kind", EXECUTOR_KINDS)
    def test_worker_frontend_parity(self, served, kind):
        model, problem, registry = served
        omegas = RNG.uniform(-3, 3, size=(6, 4))
        ref = predict_batch(model, problem, omegas)
        server = PredictionServer(registry, ServerConfig(
            max_batch=4, max_wait_ms=10, workers=2, executor=kind))
        try:
            with server:
                got = server.predict_many("m", omegas, timeout=120)
        finally:
            server.close()
        np.testing.assert_allclose(got, ref, atol=1e-5)

    @pytest.mark.parametrize("kind", ["serial", "process"])
    def test_untiled_forward_is_the_one_tile_plan_bitwise(self, served,
                                                          kind):
        """Below the tile threshold the server's forward is the tile
        engine's one-tile plan — or, under a process executor, the whole
        batch shipped to the pool (only ω crosses the pipe) — and either
        way the served field *is* ``predict_batch`` (bitwise, not
        <= 1e-5).  It is not a "tiled forward": the counter stays 0 and
        no per-tile span hangs under ``server.forward``."""
        from repro.serve import Telemetry

        model, problem, registry = served
        omegas = RNG.uniform(-3, 3, size=(3, 4))
        telemetry = Telemetry()
        server = PredictionServer(registry, ServerConfig(
            workers=2, executor=kind, cache_bytes=0))
        server.enable_telemetry(telemetry)
        try:
            # Sync front-end: one request, one forward, no batching race.
            single = server.predict("m", omegas[0])
            fused = server._forward(registry.get("m"), omegas, 32)
            if kind == "process":       # the batch left the GIL
                assert server.executor._pool is not None
        finally:
            server.close()
        np.testing.assert_array_equal(
            single, predict_batch(model, problem, omegas[0])[0])
        np.testing.assert_array_equal(
            fused, predict_batch(model, problem, omegas))
        assert server.stats.tiled_forwards == 0
        # One (model, problem) blob for the whole-batch task, no tile task.
        assert (len(server._payload_blobs), len(server._net_blobs)) == (
            (1, 0) if kind == "process" else (0, 0))
        names = {span.name for span in telemetry.tracer.spans()}
        assert "server.forward" in names
        assert not names & {"tile.compute", "tile.wave"}

    def test_process_executor_tiled_forwards(self, served):
        model, problem, registry = served
        omegas = RNG.uniform(-3, 3, size=(3, 4))
        ref = predict_batch(model, problem, omegas)
        server = PredictionServer(registry, ServerConfig(
            workers=2, executor="process", tile=16,
            tile_threshold_voxels=64))
        try:
            got = server.predict_many("m", omegas, timeout=120)
        finally:
            server.close()
        np.testing.assert_allclose(got, ref, atol=1e-5)
        assert server.stats.tiled_forwards >= 1

    @pytest.mark.parametrize("kind", ["thread", "process"])
    def test_parallel_tiled_spans_hang_under_their_request(self, served,
                                                           kind):
        """A parallel tiled forward's fan-out ("executor.map") spans sit
        in their request's tree: every span has a ``server.request``
        root, so a sampled-out request records no span and leaves the
        sampler's root count to the requests alone."""
        from repro.serve import Telemetry

        *_, registry = served
        telemetry = Telemetry(trace_sample=2)
        server = PredictionServer(registry, ServerConfig(
            workers=2, executor=kind, tile=16, cache_bytes=0))
        server.enable_telemetry(telemetry)
        try:
            for omega in RNG.uniform(-3, 3, size=(4, 4)):
                server.predict("m", omega)
        finally:
            server.close()
        spans = {span.span_id: span for span in telemetry.tracer.spans()}
        assert "executor.map" in {span.name for span in spans.values()}

        def root(span):
            while span.parent_id is not None:
                span = spans[span.parent_id]
            return span

        roots = {root(span).span_id for span in spans.values()}
        assert [spans[i].name for i in sorted(roots)] == ["server.request"] * 2

    def test_executor_error_propagates(self, served):
        *_, registry = served
        server = PredictionServer(registry, ServerConfig(
            workers=1, executor="process"))
        try:
            with server:
                future = server.submit("m", np.zeros(4), resolution=7)
                with pytest.raises(ValueError):
                    future.result(timeout=120)
        finally:
            server.close()

    def test_restart_after_stop(self, served):
        *_, registry = served
        server = PredictionServer(registry, ServerConfig(
            workers=1, executor="thread"))
        try:
            with server:
                server.predict("m", RNG.uniform(-3, 3, 4), timeout=120)
            with server:
                server.predict("m", RNG.uniform(-3, 3, 4), timeout=120)
        finally:
            server.close()
