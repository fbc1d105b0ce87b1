"""What deleted code must not grow back: one row per denied name.

``tests/test_denylist.py`` checks every row against ``src/repro`` and
plants every row into a scratch module to prove its checker sees it.

A row is ``Row(kind, name, scope, pr, carrier, plant=None)``:

* ``kind`` picks the checker:

  - ``text``: ``name`` is a regex searched in every line, prose
    included, between non-word, non-``-`` characters;
  - ``ident``: ``name`` is a case-insensitive glob matched against every
    AST identifier: names, attributes and their dotted chains
    (``time.sleep``), def and class names, parameters, keywords, import
    aliases and whitespace-free string constants;
  - ``def``: a function or class defined as ``name``, or
    ``Owner.member``: a method of, or a ``self.member =`` in, ``Owner``;
  - ``field``: ``Owner.field``, a class-body annotation (a dataclass
    field) of class ``Owner`` or a parameter of ``Owner`` (a function)
    or of ``Owner.__init__``;
  - ``flag``: an ``add_argument`` option ``name`` or one that ``name``
    abbreviates (argparse would accept it);
  - ``env``: an ``os.environ`` / ``os.getenv`` read whose key matches the
    glob ``name`` (``*``: any read, literal key or not);
  - ``import``: an import edge to, or a module at, a dotted path with a
    component matching the glob ``name``.

* ``scope``: space-separated path prefixes under ``src/repro`` the row
  applies to; ``!prefix`` excludes; no includes means every module.
* ``pr``: the PR that deleted the thing.
* ``carrier``: the test that now carries the guarantee the deleted code
  claimed to give (``path::name``; the table test checks it exists).
* ``plant``: a source line the checker must flag, where the name alone
  is not one (regex text rows).
"""

from __future__ import annotations

from typing import NamedTuple


class Row(NamedTuple):
    kind: str
    name: str
    scope: str
    pr: int
    carrier: str
    plant: str | None = None


def _rows(kind, names, scope, pr, carrier):
    return [Row(kind, name, scope, pr, carrier) for name in names]


# Carriers: the behavioural tests that pin what replaced each deletion.
CACHE = "tests/serve/test_cache.py::TestConcurrentMemoryTier"
CREATOR_BACKEND = ("tests/serve/test_executor.py::TestMapSemantics::"
                   "test_workers_keep_the_backend_they_were_created_under")
RING_ORDER = ("tests/serve/test_fleet.py::TestRoutedServing::"
              "test_reads_walk_the_replica_set_in_ring_order")
CONSERVATION = ("tests/serve/test_fleet.py::TestRoutedServing::"
                "test_stats_merge_and_conservation")
HEALS = ("tests/serve/test_fleet_faults.py::TestSingleFaultFailover::"
         "test_plain_submit_result_heals_a_hung_primary")
FLEET_SIM = ("tests/serve/test_fleet_sim.py::"
             "test_seeded_program_keeps_every_invariant")
TILING_PARITY = ("tests/properties/test_tiling_parity.py::"
                 "test_tiled_inference_parity")
PRIORITY = ("tests/serve/test_scheduling.py::TestPriorityEndToEnd::"
            "test_high_priority_jumps_saturated_queue")
CHECK_HEALTH = ("tests/serve/test_fleet_faults.py::TestCheckHealth::"
                "test_kill_and_hang_storm_heals_through_the_operator_path")
CLIENT_WINDOW = ("tests/test_cli.py::TestServe::"
                 "test_serve_client_window_stays_inside_the_queue_bound")
TELEMETRY_LAW = ("tests/serve/test_telemetry.py::TestConservationCrossCheck::"
                 "test_exactly_the_six_outcome_terms_close_the_law")
CONV_ORACLE = ("tests/backend/test_conv_plan.py::TestEngineProperty::"
               "test_forward_dx_dw_match_the_tap_loop")
EQ15 = "tests/distributed/test_data_parallel.py::TestWorkerInvariance"
GMG_ORDER = ("tests/fem/test_gmg.py::TestGMGSolver::"
             "test_cycle_visits_levels_in_the_training_schedule_order")
CYCLE_PINS = "tests/multigrid/test_hierarchy_cycles.py::TestCycleSequences"
SUBMIT_LATENCY = ("tests/serve/test_fleet_faults.py::TestSingleFaultFailover::"
                  "test_hang_fault_ejected_via_timeout")
FAN_OUT_SPANS = ("tests/serve/test_executor.py::TestServerExecutors::"
                 "test_parallel_tiled_spans_hang_under_their_request")
ONE_LOOP = ("tests/core/test_trainers.py::TestMultigridTrainer::"
            "test_cycle_over_one_worker_equals_the_plain_cycle_bitwise")
K_ONCE = "tests/fem/test_operator.py::test_matches_a_naive_dense_assembly"
CG = "tests/fem/test_krylov.py::TestPlainCG::test_matches_direct_solve"
FMG = ("tests/fem/test_stencil_fmg.py::TestFMG::"
       "test_one_hierarchy_one_operator_per_level")
ENERGY = "tests/fem/test_energy_kernel.py::test_value_matches_the_chain"
REACH = "tests/test_reach.py::test_every_def_is_entered_or_in_the_ledger"
DEAD_WORKER = ("tests/serve/test_executor.py::TestDeadWorker::"
               "test_a_killed_worker_fails_the_call_and_the_next_call_works")
ADAM = "tests/core/test_one_training_loop.py::test_adam_is_the_one_optimizer"
INTERPRETER = "tests/backend/test_lazy.py::TestInterpreter"
STOP = ("tests/distributed/test_rank_processes.py::TestParity::"
        "test_train_until_converged")
EXACT_TILES = "tests/serve/test_tiling.py::TestExactness2D"
TRANSPOSE = ("tests/backend/test_conv_transpose_plan.py::TestScatterParity::"
             "test_matches_composed_path")
EVAL_FOLD = ("tests/nn/test_conv_block_fold.py::TestFoldedBlock::"
             "test_equals_the_numpy_oracle")
# No behavioural test sees these grow back (a ``/`` rebuilt on ``Mul``
# applies no new op): the row is its own guard.
ROW = "tests/test_denylist.py::test_row_is_absent"

SERVE = "serve/"
EXECUTORS = ("make_executor", "ThreadExecutor", "ProcessExecutor")
CONV = "backend/conv_plan.py autograd/ops_conv.py"
TRAINING = "core/ distributed/ perf/ !core/trainer.py"
# A tracer or span slot compared against None, either way round.
_TRACED = r"(?:\w+\.)*(?:\w*span|trace|tracer|trace_queue|trace_parent)"

ROWS: list[Row] = [
    # PR 14: tracing is a null object, never None.
    Row("text", _TRACED + r" is (?:not )?None", SERVE, 14, TELEMETRY_LAW,
        "if req.trace_queue is not None:"),
    Row("text", r"None is (?:not )?" + _TRACED, SERVE, 14, TELEMETRY_LAW,
        "if None is aspan:"),
    # PR 16: engines are chosen from shape; no environment switches.
    Row("env", "*", "!backend/registry.py", 16, CONV_ORACLE),
    *_rows("env", ("REPRO_CONV_PLAN", "REPRO_THREADS"), "", 16, CONV_ORACLE),
    # ... and the autotune tables, whose reads went through a parameter.
    *_rows("text", ("REPRO_AUTOTUNE_CACHE", "REPRO_TILE_AUTOTUNE_CACHE"), "",
           16, CONV_ORACLE),
    *_rows("ident", ("*autotune*", "set_*_mode"), "", 16, CONV_ORACLE),
    # PR 17: Algorithm 1 is written once, in core/trainer.py.
    *_rows("ident", ("*.backward", "BatchSampler", "EarlyStopping"),
           TRAINING, 17, ONE_LOOP),
    Row("import", "distributed", "core/", 17, EQ15),
    # PR 18: one conv engine, no shape heuristic choosing between two.
    *_rows("ident", ("IM2COL_*", "path"), CONV, 18, CONV_ORACLE),
    *_rows("def", ("_decide", "_forward_*", "_backward_*", "run_conv_*"),
           CONV, 18, CONV_ORACLE),
    # PR 19: K(nu) is written once, in fem/stencil.py.
    Row("ident", "coo_matrix", "fem/", 19, K_ONCE),
    Row("ident", "*.add.at", "fem/", 19, K_ONCE),
    Row("ident", "scatter_add", "fem/", 19, K_ONCE),
    Row("ident", "_element_node_indices", "fem/", 19, K_ONCE),
    Row("ident", "*.backward", "fem/", 19, K_ONCE),
    # scipy's CG, in code or prose (``method="cg"`` names the one CG).
    Row("text", r"""(?<!['"])cg(?!['"])""", "fem/", 19, CG,
        "x = spla.cg(k, b)"),
    Row("ident", "_interp_numpy", "fem/", 19, ENERGY),
    Row("ident", "_restrict_problem", "fem/", 19, FMG),
    Row("ident", "assemble_stiffness", "fem/gmg.py", 19, FMG),
    # PR 20: the clients sleep nowhere; the fleet heals by failover.
    Row("ident", "time.sleep", "cli.py serve/fleet.py", 20, CLIENT_WINDOW),
    # PR 21: the energy loss is one op, not an op-by-op chain.
    *_rows("ident", ("conv_nd", "neumann_energy", "gauss_interp"),
           "fem/energy.py", 21, ENERGY),
    # PR 22: level-wise tile sweeps, not whole-network halo recompute.
    *_rows("ident", ("_forward_tile", "_run_tile_task", "_padded_block"),
           "serve/tiling.py", 22, TILING_PARITY),
    # PR 30: the slab model-parallel engine and the shared spill ledger.
    *_rows("ident", ("halo_exchange", "split_slabs", "join_slabs",
                     "model_parallel_conv", "ModelParallelConvStack",
                     "SpillLedger", "shared_spill"), "", 30, TILING_PARITY),
    *_rows("import", ("model_parallel", "spill_ledger"), "", 30,
           TILING_PARITY),
    # PR 31: read spreading, tenant admission and autoscaling.
    *_rows("ident", ("PowerOfTwoBalancer", "AdmissionController",
                     "TenantQuota", "Autoscaler", "TenantThrottled",
                     "add_shard", "retire_shard", "tenant"), "", 31,
           RING_ORDER),
    *_rows("import", ("admission", "balance", "autoscale"), "", 31,
           RING_ORDER),
    # PR 32: one request path and strict priority.
    *_rows("ident", ("submit_stream", "TileStream", "StreamStalled",
                     "AsyncPredictionServer", "priority_aging_s", "aging_s",
                     "tiles_delivered", "stream_resumed"), "", 32, PRIORITY),
    Row("import", "aio", "", 32, PRIORITY),
    # PR 34: hedged reads and the circuit breaker.
    *_rows("ident", ("*hedge*", "*breaker*", "ResilienceConfig",
                     "install_resilience", "uninstall_resilience"), "", 34,
           RING_ORDER),
    *_rows("flag", ("--hedge", "--breaker-after", "--breaker-reset"),
           "cli.py", 34, RING_ORDER),
    # PR 35: the control plane; the fleet heals through check_health().
    *_rows("text", ("ControlPlane", "ControlConfig", "ControlStats",
                    "HealthProber", "probe_shard", "Gauge", "stats.control",
                    "--control"), "", 35, CHECK_HEALTH),
    Row("flag", "--control", "cli.py", 35, CHECK_HEALTH),
    Row("import", "control", SERVE, 35, CHECK_HEALTH),
    # PR 36: client retry and its token-bucket budget.
    *_rows("text", ("RetryPolicy", "RetryConfig", "TokenBucket", "retry_call",
                    "backoff_window", "note_retry", "fleet.retry",
                    "stats.retry", "--retries", "--retry-budget"), "", 36,
           CLIENT_WINDOW),
    *_rows("flag", ("--retries", "--retry-budget"), "cli.py", 36,
           CLIENT_WINDOW),
    Row("import", "resilience", "", 36, CLIENT_WINDOW),
    # PR 38: the disk spill tier, worker backend pinning and the fleet's
    # simulated interconnect.
    *_rows("text", ("spill_dir", "spill_max_bytes", "cache_dir", "prune_spill",
                    "spill_file_name"), SERVE, 38, CACHE),
    *_rows("text", ("ServerConfig.backend", "config.backend"), SERVE, 38,
           CREATOR_BACKEND),
    *_rows("text", ("time_model", "send_calls", "virtual_comm_seconds",
                    "repro.distributed", "..distributed"), SERVE, 38,
           CONSERVATION),
    Row("import", "distributed", SERVE, 38, CONSERVATION),
    *_rows("field", ("ServerConfig.cache_dir", "ServerConfig.spill_max_bytes",
                     "CacheStats.spill_hits", "CacheStats.spill_writes",
                     "CacheStats.spill_bytes", "CacheStats.spill_evictions"),
           "", 38, CACHE),
    *_rows("field", ("ServerConfig.backend", "ModelEntry.dtype",
                     "ModelEntry.backend",
                     *(f"{e}.{p}" for e in EXECUTORS
                       for p in ("backend", "dtype"))), "", 38,
           CREATOR_BACKEND),
    *_rows("field", ("FleetConfig.time_model", "FleetStats.send_calls",
                     "FleetStats.send_bytes",
                     "FleetStats.virtual_comm_seconds",
                     "CommLog.send_calls", "CommLog.send_bytes"), "", 38,
           CONSERVATION),
    *_rows("flag", ("--cache-dir", "--spill-mb"), "cli.py", 38, CACHE),
    Row("flag", "--backend", "cli.py", 38, CREATOR_BACKEND),
    # PR 41: the drain helper and the storm replay.
    Row("text", "await_result", SERVE, 41, HEALS),
    *_rows("text", ("ReplayHarness", "Scenario", "ShardChaos", "TenantSpec",
                    "build_trace", "event_log", "serve.replay"), SERVE, 41,
           FLEET_SIM),
    Row("import", "replay", SERVE, 41, FLEET_SIM),
    # PR 44: the ops, layers and options nothing trains with.  A def
    # glob is case-insensitive: ``Exp`` is the op, its ``exp`` wrapper
    # and the ``Tensor.exp`` entry point at once (the backend's array
    # methods of the same names stay).  An op class that grows back
    # unapplied fails the reach ledger ...
    *_rows("def", ("Abs", "Clip", "Div", "Exp", "GetItem", "Log", "MatMul",
                   "Max", "Min", "Power", "ReLU", "Softplus", "Tanh",
                   "Transpose", "Where", "AvgPoolNd", "_GroupNormFn"),
           "autograd/ nn/", 44, REACH),
    # ... but wrappers, layers, entry points and options rebuilt from the
    # ops that stay apply nothing new.
    *_rows("def", ("abs_", "max_", "min_", "avg_pool_nd", "AvgPool",
                   "GroupNorm", "Tensor.__truediv__", "Tensor.__rtruediv__",
                   "Tensor.__matmul__", "Tensor.__pow__",
                   "Tensor.__getitem__", "Tensor.sqrt", "Tensor.randn",
                   "Tensor.from_numpy"), "autograd/ nn/", 44, ROW),
    *_rows("field", ("ConvBlock.norm", "UNet.final_activation"), "", 44, ROW),
    # Training is Adam at a fixed learning rate, built by the one factory.
    Row("def", "SGD", "", 44, ADAM),
    *_rows("def", ("LRScheduler", "StepLR", "ExponentialLR",
                   "CosineAnnealingLR", "Optimizer.add_param_group"), "", 44,
           ROW),
    *_rows("field", ("TrainConfig.optimizer", "TrainConfig.weight_decay",
                     "Adam.weight_decay"), "", 44, ROW),
    # PR 45: the lazy backend's C JIT, its host-fingerprinted kernel cache
    # and its environment switches; the interpreter runs every cluster.
    Row("import", "cjit", "", 45, INTERPRETER),
    *_rows("def", ("MeasurementCache", "host_fingerprint", "kernel_index",
                   "jit_cache_dir", "render_source", "get_kernel",
                   "run_kernel"), "", 45, INTERPRETER),
    Row("env", "REPRO_JIT_*", "", 45, INTERPRETER),
    Row("import", "subprocess", "backend/", 45, INTERPRETER),
    # PR 47: options nothing set.  Deleted defs need no row: the reach
    # ledger fails on a def that grows back unreached.
    Row("field", "TrainConfig.log_every", "", 47, REACH),
    Row("field", "EnergyLoss.neumann", "", 47, ENERGY),
    Row("field", "ProcessExecutor.start_method", "", 47, DEAD_WORKER),
    # Options no caller set to a second value, now constants.
    # Every process computes the epoch loss from the same rows, so early
    # stopping needs no exchanged verdict (and there is no time budget).
    Row("field", "TrainConfig.max_time", "", 48, STOP),
    Row("def", "_agree", "", 48, STOP),
    Row("ident", "verdict", "distributed/", 48, STOP),
    # The predict paths tile with the network's own halo.
    Row("flag", "--halo", "cli.py", 48, EXACT_TILES),
    *_rows("field", ("ServerConfig.halo", "tiled_predict.halo",
                     "stream_tiled_predict.halo", "_resolve_plan.halo"), "",
           48, EXACT_TILES),
    *_rows("field", ("restrict_nested.mode", "_restrict_axis.normalize"), "",
           48, "tests/fem/test_gmg.py::TestNestedTransfer::"
           "test_restriction_is_adjoint"),
    Row("field", "sample_omega.engine", "", 48,
        "tests/data/test_sobol.py::TestAgainstScipy"),
    *_rows("field", ("ConvTransposeNd.output_padding",
                     "conv_transpose_nd.output_padding",
                     "conv_transpose_output_shape.output_padding"), "", 48,
           TRANSPOSE),
    Row("ident", "output_padding", "autograd/ nn/ backend/", 48, TRANSPOSE),
    *_rows("field", ("Adam.betas", "Adam.eps"), "", 48,
           "tests/optim/test_optimizers.py::TestAdam::"
           "test_first_step_magnitude_is_lr"),
    *_rows("field", ("BatchNorm.eps", "BatchNorm.momentum"), "nn/", 48,
           "tests/autograd/test_bn_act.py::TestModule::"
           "test_running_statistics_match_the_old_update"),
    Row("field", "BatchSampler.drop_last", "", 48,
        "tests/data/test_dataset_loader.py::TestBatchSampler::"
        "test_covers_all_indices"),
    *_rows("field", ("calculate_fan.mode", "kaiming_normal.mode",
                     "kaiming_normal.dtype"), "", 48,
           "tests/nn/test_layers.py::TestInit"),
    Row("field", "FleetConfig.vnodes", "", 48, RING_ORDER),
    Row("field", "write_vti.origin", "", 48,
        "tests/utils/test_vtk.py::TestRoundtrip"),
    Row("field", "format_table.float_fmt", "", 48,
        "tests/utils/test_utils.py::TestViz::test_format_table"),
    # One copy of each.  Fig. 3's coarse-visit table lives in
    # multigrid/cycles.py, which both the schedules and GMG walk.
    Row("ident", "_COARSE_VISITS", "fem/", 49, GMG_ORDER),
    *_rows("def", ("_v_levels", "_w_levels", "_f_levels", "_half_v_levels"),
           "", 49, CYCLE_PINS),
    # One latency quantile: the stats read a QuantileSketch.
    Row("def", "_LatencyPercentiles", "", 49, SUBMIT_LATENCY),
    Row("ident", "_LAT_WINDOW", "serve/", 49, SUBMIT_LATENCY),
    *_rows("field", ("ServerStats.latencies", "FleetStats.latencies"), "",
           49, SUBMIT_LATENCY),
    # One cache-hit count: the cache's own.
    Row("field", "ServerStats.cache_hits", "", 49,
        "tests/serve/test_batching_server.py::TestSyncFrontend::"
        "test_cache_hit_on_repeat"),
    # One ordered map, and no tracer inside the executor.
    Row("def", "_map_span", "", 49, FAN_OUT_SPANS),
    Row("ident", "tracer", "serve/executor.py", 49, FAN_OUT_SPANS),
    Row("ident", "*executor.tracer", "serve/", 49, FAN_OUT_SPANS),
    # The serial executor is the base class (its body was its kind).
    Row("def", "SerialExecutor", "", 50,
        "tests/serve/test_executor.py::TestTiledParity::"
        "test_serial_executor_is_neutral"),
    # Tiled inference reads each padded block through one block source
    # (an array's view, or the log-nu evaluator on the block's box).
    Row("def", "extract_padded_block", "", 52,
        "tests/serve/test_tiling.py::TestPaddedBlock"),
    # One down-sampling, the stride-2 conv: MaxPool only served an
    # ablation no figure is made from.
    *_rows("def", ("MaxPoolNd", "max_pool_nd", "MaxPool"), "", 54,
           TILING_PARITY),
    Row("import", "pooling", "", 54, TILING_PARITY),
    *_rows("field", ("UNet.downsample", "MGDiffNet.downsample"), "", 54,
           TILING_PARITY),
    # The network reads log nu; there is no input-transform switch.
    *_rows("field", ("DiffusivityDataset.input_transform",
                     "make_dataset.input_transform"), "", 54,
           "tests/data/test_dataset_loader.py::TestDataset::"
           "test_log_transform_default"),
    # Evaluation mode is ConvBlock's fold, tape on or off: no
    # running-statistics op, and batch_norm is the training op.
    Row("def", "BatchNormInference", "", 54, EVAL_FOLD),
    *_rows("field", ("batch_norm.running_mean", "batch_norm.running_var",
                     "batch_norm.training"), "", 54, EVAL_FOLD),
    # Serving methods nothing called.
    Row("def", "ShardedFleet.predict_many", "", 54,
        "tests/serve/test_fleet.py::TestRoutedServing::"
        "test_predict_matches_single_server"),
    Row("def", "ShardedFleet.unregister", "", 54,
        "tests/serve/test_fleet.py::TestRegistryFanOut::"
        "test_reregister_updates_catalog_version"),
    Row("def", "ShardedFleet.stop", "", 54,
        "tests/serve/test_fleet_faults.py::TestHangWatchdog::"
        "test_one_watchdog_per_started_fleet_stopped_with_it"),
    *_rows("def", ("HashRing.remove", "HashRing.nodes"), "", 54,
           "tests/properties/test_hash_ring.py::TestMinimalDisruption::"
           "test_remove_moves_only_orphaned_keys"),
    Row("def", "LRUCache.clear", "", 54, ROW),
    *_rows("def", ("MetricsRegistry.names", "MetricsRegistry.value"), "", 54,
           TELEMETRY_LAW),
    *_rows("def", ("Executor.workers", "Executor.imap_unordered"), "", 54,
           "tests/serve/test_executor.py::TestTiledParity::"
           "test_serial_executor_is_neutral"),
    # The checkpoint format is read in core/checkpoint.py alone.
    Row("text", "meta::", "serve/", 49,
        "tests/serve/test_registry.py::TestErrors::"
        "test_missing_architecture_metadata"),
]
