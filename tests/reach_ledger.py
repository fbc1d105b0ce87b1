"""The defs under ``src/repro`` that no surface of ``tests/test_reach.py``
enters, each with the reason it stays.

A row is ``Row(module, qualname, kind, carrier)``.  ``kind`` is one of
``KINDS``; ``carrier`` names what runs the def instead:

* ``error``: the path runs only when something fails; the test that
  drives it (``path::name``);
* ``child``: only a forked rank or pool worker runs it (or the parent
  side of that fork, which the probe keeps in process); the test that
  forks;
* ``traced``: only a bench workload's traced pass runs it;
  ``bench/workloads/<name>.py::trace``;
* ``example``: only an example the probe does not run; its path;
* ``oracle``: only a test's reference implementation calls it; the test;
* ``api``: one method of a protocol the system implements whole (a
  context manager's ``__exit__``, a scalar on the left of ``*``, a
  container's ``__len__``) that no surface happens to call; the test
  that pins it, or that uses it as a fixture;
* ``paper``: only a ``benchmarks/bench_*.py`` script that reproduces a
  paper figure, table or ablation runs it; the script's path.  The
  script must name the row's public entry: ``entry`` when the row gives
  one (the call through which the script reaches a helper, e.g.
  ``adapt=``), else the qualname's last name that is not a dunder;
* ``reserved``: the open ROADMAP item that calls it (``ROADMAP 3``);
  ``ROADMAP 1(d)`` is the re-based benchmark suite that takes over
  ``benchmarks/``, whose CI smoke gates are the only callers today, and
  ``ROADMAP 2`` deletes the lazy backend and the dispatch layer whole.

The table only shrinks: a def that goes unreached without a row fails
the reach test, and so does a row whose def is entered again or gone.
"""

from __future__ import annotations

from typing import NamedTuple

KINDS = ("error", "child", "traced", "example", "oracle", "api", "paper",
         "reserved")


class Row(NamedTuple):
    module: str
    qualname: str
    kind: str
    carrier: str
    entry: str | None = None


def _rows(module, qualnames, kind, carrier, entry=None):
    return [Row(module, q, kind, carrier, entry) for q in qualnames.split()]


# Carriers named by more than one row.
TRACED_MG3D = "bench/workloads/train_mg3d.py::trace"
TRACED_GMG = "bench/workloads/solve_gmg3d.py::trace"
DISTRIBUTED = "examples/distributed_training.py"
RANKS = "tests/distributed/test_rank_processes.py::TestParity"
RANK_FAILS = ("tests/distributed/test_rank_processes.py::TestFailure::"
              "test_forked_rank_raises")
PROCESS_TILES = ("tests/serve/test_executor.py::TestTiledParity::"
                 "test_parallel_matches_full_forward")
BACKEND_IN_CHILD = ("tests/serve/test_executor.py::TestMapSemantics::"
                    "test_process_workers_reinit_backend")
CHAOS = "tests/serve/test_fleet_faults.py::TestChaosStorms"
DECOMMISSION = "tests/serve/test_fleet.py::TestDecommissionProperties"
TRACER = "tests/serve/test_telemetry.py::TestTracer"
MATRIX_ENERGY = ("tests/fem/test_energy.py::TestExactness::"
                 "test_value_equals_matrix_energy")
TABLE2 = "benchmarks/bench_table2_adaptation.py"
BC_ABLATION = "benchmarks/bench_ablation_bc_imposition.py"
SEC43 = "benchmarks/bench_sec43_inference_vs_fem.py"
BENCHMARKS = "ROADMAP 1(d)"
LAZY = "ROADMAP 2"
CERTIFY = "ROADMAP 3"

ROWS: list[Row] = [
    # -- traced passes ---------------------------------------------------- #
    *_rows("repro.autograd.profiler", "Profile.total_seconds "
           "profile.__enter__ profile.__exit__ record", "traced",
           TRACED_MG3D),
    *_rows("repro.backend", "get_pool", "traced", TRACED_MG3D),
    *_rows("repro.backend.conv_plan", "plan_cache_info", "traced",
           TRACED_MG3D),
    *_rows("repro.backend.pool", "PoolStats.hit_rate PoolStats.snapshot",
           "traced", TRACED_MG3D),
    Row("repro.core.mg_trainer", "MGResult.time_per_level", "traced",
        TRACED_MG3D),
    Row("repro.distributed.data_parallel", "DPResult.measured_wall",
        "traced", "bench/workloads/train_dp2d.py::trace"),
    Row("repro.fem.assembly", "assemble_stiffness", "traced", TRACED_GMG),
    Row("repro.backend.lazy", "jit_enabled", "traced", TRACED_GMG),
    *_rows("repro.backend.lazy.graph", "LazyArray.__setitem__ "
           "LazyArray._writable_buffer LazyArray.ravel", "traced",
           TRACED_GMG),
    Row("repro.serve.telemetry.trace", "Tracer.clear", "traced",
        "bench/workloads/serve_fleet2d.py::trace"),
    Row("repro.serve.tiling", "tiled_forward", "traced",
        "bench/workloads/predict_tiled3d.py::trace"),
    # -- the distributed example ------------------------------------------ #
    Row("repro.core.mgdiffnet", "MGDiffNet.num_weights", "example",
        DISTRIBUTED),
    Row("repro.distributed.ring", "RingStats.theoretical_bytes_per_rank",
        "example", DISTRIBUTED),
    *_rows("repro.perf.measure", "_training_step measure_sample_time",
           "example", DISTRIBUTED),
    # -- forked ranks and pool workers ------------------------------------ #
    Row("repro.backend", "reset_after_fork", "child", BACKEND_IN_CHILD),
    Row("repro.serve.executor", "_process_worker_init", "child",
        BACKEND_IN_CHILD),
    Row("repro.serve.server", "_predict_batch_remote", "child",
        "tests/serve/test_executor.py::TestServerExecutors::"
        "test_worker_frontend_parity"),
    *_rows("repro.serve.tiling", "_run_stage_task "
           "stream_tiled_forward.<locals>.sweep.<locals>.remote_task",
           "child", PROCESS_TILES),
    *_rows("repro.distributed.data_parallel",
           "DataParallelTrainer._assert_synced "
           "DataParallelTrainer._broadcast_rank0 "
           "DataParallelTrainer._rank_state "
           "DataParallelTrainer._set_rank_state "
           "_RankGroup._mailbox _RankGroup._reap _RankGroup.hand_back",
           "child", RANKS),
    *_rows("repro.distributed.data_parallel", "_RankGroup.fail _die_with",
           "child", RANK_FAILS),
    # -- error paths ------------------------------------------------------- #
    Row("repro.distributed.data_parallel", "_RankGroup.failure", "error",
        RANK_FAILS),
    Row("repro.distributed.data_parallel", "_RankGroup.abort", "error",
        "tests/distributed/test_rank_processes.py::TestFailure::"
        "test_abort_reaps_a_process_killed_holding_the_barrier_lock"),
    Row("repro.backend.registry", "available_backends", "error",
        "tests/backend/test_backend.py::TestRegistry::"
        "test_unknown_backend_raises"),
    Row("repro.serve.cache", "key_digest", "error", CHAOS),
    *_rows("repro.serve.errors", "_key_digest DeadlineExceeded.__init__ "
           "ServerOverloaded.__init__", "error", CHAOS),
    Row("repro.serve.errors", "FleetUnavailable.__init__", "error",
        "tests/serve/test_fleet_faults.py::TestRecovery::"
        "test_all_replicas_down_raises_fleet_unavailable"),
    Row("repro.serve.server", "PredictionServer._expire_request", "error",
        CHAOS),
    Row("repro.serve.fleet", "ShardedFleet.expire_hung", "error",
        "tests/serve/test_fleet_faults.py::TestHangWatchdog"),
    *_rows("repro.serve.fleet", "ShardedFleet._reconcile "
           "ShardedFleet.decommission_shard", "error", DECOMMISSION),
    # -- test oracles ------------------------------------------------------ #
    Row("repro.fem.assembly", "interpolate_to_gauss", "oracle",
        "tests/fem/test_energy_kernel.py::test_gradient_is_the_residual"),
    Row("repro.fem.grid", "UniformGrid.element_shape", "oracle",
        "tests/fem/test_energy_kernel.py::test_value_matches_the_chain"),
    Row("repro.fem.grid", "UniformGrid.coordinates", "oracle",
        "tests/core/test_problem.py::TestFEMReference::"
        "test_constant_nu_linear"),
    Row("repro.fem.solver", "FEMSolver.energy", "oracle", MATRIX_ENERGY),
    Row("repro.fem.stencil", "StencilOperator.energy", "oracle",
        MATRIX_ENERGY),
    # -- the rest of a protocol the system implements --------------------- #
    *_rows("repro.autograd.tensor", "Tensor.__radd__ Tensor.__rmul__ "
           "Tensor.__rsub__", "api", "tests/autograd/test_tensor.py::"
           "TestOperators::test_radd_rsub_rmul"),
    Row("repro.backend.conv_plan", "clear_plan_cache", "api",
        "tests/backend/test_conv_plan.py::TestMemoization"),
    Row("repro.backend.dtype", "dtype_scope", "api",
        "tests/backend/test_backend.py::TestDtypePolicy::"
        "test_scope_restores_on_exit"),
    Row("repro.backend.pool", "BufferPool.clear", "api",
        "tests/backend/test_backend.py::TestBufferPool::"
        "test_clear_drops_buffers"),
    *_rows("repro.nn.container", "ModuleList.__len__ ModuleList.__setitem__",
           "api", "tests/nn/test_module.py::TestContainers::"
           "test_modulelist_set_get"),
    Row("repro.distributed.data_parallel", "DataParallelTrainer.adapt",
        "api", "tests/core/test_trainers.py::TestMultigridTrainer::"
        "test_adaptation_keeps_replicas_synchronized"),
    *_rows("repro.serve.cache", "LRUCache.__contains__ LRUCache.__len__",
           "api", "tests/serve/test_cache.py::TestLRU"),
    *_rows("repro.serve.registry", "ModelRegistry.__contains__ "
           "ModelRegistry.__len__ ModelRegistry.unregister", "api",
           "tests/serve/test_registry.py::TestRoundtrip"),
    Row("repro.serve.hashring", "HashRing.__contains__", "api",
        "tests/properties/test_hash_ring.py::TestLookupContract"),
    *_rows("repro.serve.telemetry.trace", "Span.__enter__ Span.__exit__ "
           "NullSpan.__enter__ NullSpan.__exit__ NullTracer.spans", "api",
           TRACER),
    # -- the paper's figures, tables and ablations ------------------------ #
    # Table 2: architectural adaptation (``MultigridTrainer(adapt=True)``).
    Row("repro.core.trainer", "Trainer.adapt", "paper", TABLE2),
    Row("repro.core.mgdiffnet", "MGDiffNet.adapt", "paper", TABLE2),
    *_rows("repro.nn.unet", "UNet.adapt_decoder RefinementBlock.__init__ "
           "RefinementBlock.forward", "paper", TABLE2, "adapt="),
    Row("repro.optim.optimizer", "Optimizer.sync_params", "paper", TABLE2,
        "adapt="),
    Row("repro.nn.unet", "UNet.num_adaptations", "paper", TABLE2),
    # The BC-imposition ablation: the penalty loss exact masking replaces.
    *_rows("repro.core.penalty", "BoundaryPenaltyLoss.__init__ "
           "BoundaryPenaltyLoss.__call__ "
           "BoundaryPenaltyLoss.boundary_violation", "paper", BC_ABLATION),
    *_rows("repro.autograd.ops_basic", "Sub.forward Sub.backward sub",
           "paper", BC_ABLATION, "BoundaryPenaltyLoss"),
    *_rows("repro.autograd.ops_reduce", "Sum.forward Sum.backward sum_",
           "paper", BC_ABLATION, "BoundaryPenaltyLoss"),
    *_rows("repro.autograd.tensor", "Tensor.__sub__ Tensor.sum", "paper",
           BC_ABLATION, "BoundaryPenaltyLoss"),
    *_rows("repro.core.inference", "InferenceTiming.speedup "
           "time_inference_vs_fem", "paper", SEC43),
    Row("repro.core.inference", "_timed", "paper", SEC43,
        "time_inference_vs_fem"),
    Row("repro.core.mg_trainer", "MGResult.loss_history", "paper",
        "benchmarks/bench_fig8_loss_curves.py"),
    Row("repro.core.mg_trainer", "MGResult.time_fraction_per_level", "paper",
        "benchmarks/bench_fig7_level_time.py"),
    Row("repro.core.mg_trainer", "MultigridTrainer.train_baseline", "paper",
        "benchmarks/bench_table1_strategies.py"),
    Row("repro.core.presets", "paper_unet", "paper",
        "benchmarks/bench_fig9_gpu_scaling.py"),
    Row("repro.perf.measure", "measure_epoch_time", "paper",
        "benchmarks/bench_fig2_epoch_time.py"),
    Row("repro.perf.model", "compute_time_at_resolution", "paper",
        "benchmarks/bench_fig9_gpu_scaling.py"),
    # -- reserved: the benchmark suite's port (item 1(d)) ----------------- #
    Row("repro.utils.viz", "write_csv", "reserved", BENCHMARKS),
    *_rows("repro.fem.krylov", "gmg_preconditioner "
           "gmg_preconditioner.<locals>.apply", "reserved", BENCHMARKS),
    # -- reserved: answers certified against the PDE (item 3) ------------- #
    Row("repro.fem.gmg", "full_multigrid_solve", "reserved", CERTIFY),
    *_rows("repro.multigrid.transfer", "resample_linear _resample_axis",
           "reserved", CERTIFY),
    Row("repro.serve.telemetry.metrics", "MetricsRegistry.histogram",
        "reserved", CERTIFY),
    *_rows("repro.serve.telemetry.metrics", "QuantileSketch.max "
           "QuantileSketch.mean QuantileSketch.min QuantileSketch.summary",
           "reserved", CERTIFY),
    # -- reserved: the model graded by its energy gap (item 9) ------------ #
    Row("repro.core.trainer", "Trainer.evaluate_loss", "reserved",
        "ROADMAP 9"),
    # -- reserved: one array library (item 2 deletes these whole) --------- #
    *_rows("repro.backend.base", "ArrayBackend.__getattr__ "
           "ArrayBackend.has_op ArrayBackend.op_names "
           "ArrayBackend.register_op "
           "ArrayBackend.register_op.<locals>.decorator", "reserved", LAZY),
    Row("repro.backend.registry", "_OpDispatcher.__dir__", "reserved", LAZY),
    Row("repro.backend.numpy_backend", "_scatter_add", "reserved", LAZY),
    *_rows("repro.backend.lazy.graph", "LazyArray.T LazyArray.__and__ "
           "LazyArray.__bool__ LazyArray.__eq__ LazyArray.__ge__ "
           "LazyArray.__int__ LazyArray.__invert__ LazyArray.__le__ "
           "LazyArray.__len__ LazyArray.__lt__ LazyArray.__mod__ "
           "LazyArray.__ne__ LazyArray.__neg__ LazyArray.__or__ "
           "LazyArray.__pow__ LazyArray.__radd__ LazyArray.__rmatmul__ "
           "LazyArray.__rpow__ LazyArray.__xor__ LazyArray.argmax "
           "LazyArray.astype LazyArray.fill LazyArray.flags "
           "LazyArray.flatten LazyArray.item LazyArray.itemsize "
           "LazyArray.max LazyArray.min LazyArray.nbytes LazyArray.numpy "
           "LazyArray.squeeze LazyArray.std LazyArray.sum LazyArray.tolist "
           "LazyArray.transpose LazyArray.var", "reserved", LAZY),
    *_rows("repro.backend.lazy.ops_lazy", "_copyto _like.<locals>.fn "
           "_red.<locals>.fn _scatter_add", "reserved", LAZY),
    *_rows("repro.backend.lazy.schedule", "reset_schedule_stats "
           "schedule_stats", "reserved", LAZY),
]
