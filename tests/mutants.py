"""Planted defects, each with the tests that must catch it.

``python -m tests.mutate`` applies one row at a time to a scratch copy
of ``src/`` and ``tests/`` and runs only that row's killing tests;
every row must fail them.  ``tests/test_mutants.py`` keeps the table
honest without running it: each snippet occurs exactly once in its
file, the mutated file still parses, and each killing test exists.

A row is ``Mutant(name, file, old, new, killers)``: ``file`` relative to
the repo root, ``old`` an exact snippet of it, ``new`` its replacement,
``killers`` test ids as pytest prints them.

The rule for deletions: a PR that deletes behaviour may drop the tests
of that behaviour only while every mutant here still dies, and it names
each dropped test in CHANGES.md.
"""

from __future__ import annotations

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    killers: tuple[str, ...]


SERVE = "src/repro/serve/"
FLEET = SERVE + "fleet.py"
SERVER = SERVE + "server.py"
BATCHING = SERVE + "batching.py"
CYCLES = "src/repro/multigrid/cycles.py"
TUNING = "src/repro/backend/tuning.py"
BLAS_PIN = "tests/backend/test_blas_pin.py"
WATCHDOG = "tests/serve/test_fleet_faults.py::TestHangWatchdog"
ADAPTIVE = "tests/serve/test_batching_server.py::TestAdaptiveHold"
DENY = "tests/test_denylist.py::test_row_is_absent"
STEP_BYTES = "tests/core/test_step_bytes.py"
REACH = "tests/test_reach.py::test_every_def_is_entered_or_in_the_ledger"
DEAD_WORKER = ("tests/serve/test_executor.py::TestDeadWorker::"
               "test_a_killed_worker_fails_the_call_and_the_next_call_works")

MUTANTS: list[Mutant] = [
    # -- the micro-batcher and the request queue (PRs 32, 37) ------------ #
    Mutant("queue key ages by enqueue time", BATCHING,
           "super().put((-request.priority, next(self._seq), request),",
           "super().put((request.enqueued_at - request.priority,"
           " next(self._seq), request),",
           ("tests/serve/test_scheduling.py::TestQueueOrderProperty",)),
    Mutant("adaptive hold weight 1", BATCHING,
           "- self._mean_gap) / 16", "- self._mean_gap) / 1",
           (ADAPTIVE,)),
    Mutant("adaptive hold comparison flipped", BATCHING,
           "(hold if self._mean_gap <= hold", "(hold if self._mean_gap > hold",
           (ADAPTIVE,)),
    Mutant("claim filter dropped", SERVER,
           "group = [req for req in group if self._claim(req)]",
           "group = [req for req in group if self._claim(req) or True]",
           ("tests/serve/test_scheduling.py::TestCancellation::"
            "test_cancelled_member_leaves_its_fused_group",)),
    # -- the fleet's delivery and hang failover (PRs 36, 41) ------------- #
    Mutant("deliver without its delivered guard", FLEET,
           "            if state.delivered:\n                return False\n"
           "            state.delivered = True",
           "            state.delivered = True",
           (WATCHDOG,)),
    Mutant("settle without its straggler check", FLEET,
           "if state.delivered or state.attempt != attempt:",
           "if state.delivered:",
           (WATCHDOG,)),
    Mutant("attempt_started not reset on re-dispatch", FLEET,
           "                        state.attempt_started = time.monotonic()\n",
           "",
           (WATCHDOG,)),
    Mutant("re-dispatch not re-armed", FLEET,
           "                        self._armed[state] = None\n", "",
           (WATCHDOG,)),
    Mutant("a hang ejection stamps ejected_at", FLEET,
           "shard.ejected_at = None if hang else time.monotonic()",
           "shard.ejected_at = time.monotonic()",
           ("tests/serve/test_fleet_faults.py::TestRecovery",)),
    Mutant("answers dispatched before an error ejection readmit", FLEET,
           "if ejected_at is not None and dispatched_at < ejected_at:",
           "if ejected_at is not None and dispatched_at < ejected_at - 1e9:",
           ("tests/serve/test_fleet_faults.py::TestRecovery::"
            "test_answer_dispatched_before_ejection_does_not_readmit",)),
    Mutant("watchdog started without a budget", FLEET,
           "            if (self.config.shard_timeout_s is not None\n"
           "                    and self._watchdog is None):",
           "            if self._watchdog is None:",
           (WATCHDOG,)),
    Mutant("replica order reversed", FLEET,
           "candidate = state.replicas[state.next_idx]",
           "candidate = state.replicas[-1 - state.next_idx]",
           ("tests/serve/test_fleet.py::TestRoutedServing::"
            "test_reads_walk_the_replica_set_in_ring_order",)),
    Mutant("a cancelled attempt ejects its shard", FLEET,
           '            span.finish(outcome="cancelled")\n',
           '            span.finish(outcome="cancelled")\n'
           "            self._eject(shard, exc)\n",
           ("tests/serve/test_verdict_parity.py::"
            "test_attempt_cancelled_in_flight_moves_on",)),
    Mutant("the fleet grows a policy seam", FLEET,
           "        self._armed: dict[_RouteState, None] = {}\n",
           "        self._armed: dict[_RouteState, None] = {}\n"
           "        self.policy = None\n",
           ("tests/serve/test_one_tile_engine.py::"
            "test_the_fleet_has_no_policy_seam",)),
    Mutant("a stats.control view named in the fleet", FLEET,
           "        self._armed: dict[_RouteState, None] = {}\n",
           "        self._armed: dict[_RouteState, None] = {}  # stats.control\n",
           (f"{DENY}[text:stats.control@*]",)),
    # -- what PR 38 deleted, grown back ---------------------------------- #
    Mutant("ServerConfig.backend re-added", SERVER,
           '    executor: str = "serial"  ',
           '    backend: str = "numpy"\n    executor: str = "serial"  ',
           (f"{DENY}[field:ServerConfig.backend@*]",)),
    Mutant("serve imports the distributed communicator", FLEET,
           "from .telemetry import",
           "from ..distributed.comm import SimulatedCommunicator\n"
           "from .telemetry import",
           (f"{DENY}[import:distributed@serve/]",)),
    Mutant("the --cache-dir flag re-added", "src/repro/cli.py",
           'p.add_argument("--cache-mb", type=int, default=64)',
           'p.add_argument("--cache-mb", type=int, default=64)\n'
           '    p.add_argument("--cache-dir", default=None)',
           (f"{DENY}[flag:--cache-dir@cli.py]",)),
    # -- the result cache (PR 38) ---------------------------------------- #
    Mutant("a cache hit does not refresh recency", SERVE + "cache.py",
           "            self._entries.move_to_end(key)\n", "",
           ("tests/serve/test_cache.py::TestLRU::"
            "test_byte_bound_evicts_lru",)),
    Mutant("a replaced key counts its bytes twice", SERVE + "cache.py",
           "self.stats.bytes_cached -= old.nbytes",
           "self.stats.bytes_cached -= 0",
           ("tests/serve/test_cache.py::TestLRU::"
            "test_replacement_updates_bytes",)),
    Mutant("omegas are not snapped to the key lattice", SERVE + "cache.py",
           "q = np.round(np.asarray(omega, dtype=np.float64) / step) * step",
           "q = np.asarray(omega, dtype=np.float64)",
           ("tests/serve/test_cache.py::TestQuantization::"
            "test_nearby_omegas_share_a_key",)),
    # -- executors (PR 38) ------------------------------------------------ #
    Mutant("thread workers ignore the creator's backend",
           SERVE + "executor.py", "    set_backend(backend)\n", "",
           ("tests/serve/test_executor.py::TestMapSemantics::"
            "test_thread_workers_pin_creator_backend",)),
    # -- a dead process worker (PR 47) ------------------------------------ #
    Mutant("the executor ignores a dead worker", SERVE + "executor.py",
           "                yield futures[fut], fut.result()",
           "                if fut.exception() is None:\n"
           "                    yield futures[fut], fut.result()",
           (DEAD_WORKER,)),
    Mutant("a broken pool is kept for the next call", SERVE + "executor.py",
           "                if self._pool is pool:\n"
           "                    self._pool = None\n",
           "                pass\n",
           (DEAD_WORKER,)),
    # -- the data-parallel trainer (PR 33) ------------------------------- #
    Mutant("each process averages only its own ranks' losses",
           "src/repro/distributed/data_parallel.py",
           "loss = float(B.mean(rows[:, n].tolist()))",
           "loss = float(B.mean(rows[list(group.ranks), n].tolist()))",
           ("tests/distributed/test_rank_processes.py::TestParity::"
            "test_train_until_converged",)),
    Mutant("ring all-reduce averages over one rank too few",
           "src/repro/distributed/ring.py",
           "            w /= p\n", "            w /= p - 1\n",
           ("tests/distributed/test_ring_comm.py::TestRingAllReduce::"
            "test_average",)),
    Mutant("a missing gradient flattens as ones",
           "src/repro/distributed/data_parallel.py",
           "else np.zeros_like(p.data)", "else np.ones_like(p.data)",
           ("tests/distributed/test_data_parallel.py::TestFlattening::"
            "test_missing_grad_is_zero",)),
    Mutant("every process compares the sync rows",
           "src/repro/distributed/data_parallel.py",
           "        group.wait()\n        if group.index:\n            return\n",
           "        group.wait()\n",
           ("tests/distributed/test_rank_processes.py::TestParity::"
            "test_check_sync_raises_on_planted_divergence",)),
    Mutant("the reaper aborts a broken barrier again",
           "src/repro/distributed/data_parallel.py",
           "if status != 0 and not self.barrier.broken:",
           "if status != 0:",
           ("tests/distributed/test_rank_processes.py::TestFailure::"
            "test_abort_reaps_a_process_killed_holding_the_barrier_lock",)),
    Mutant("world_size 0 accepted", "src/repro/distributed/data_parallel.py",
           "        if world < 1:\n", "        if world < 0:\n",
           ("tests/distributed/test_data_parallel.py::TestMechanics::"
            "test_world_size_below_one_rejected",)),
    # -- server settings -------------------------------------------------- #
    Mutant("an odd halo accepted", SERVE + "tiling.py",
           "    if halo < 0 or halo % 2:\n", "    if halo < 0:\n",
           ("tests/serve/test_tiling.py::TestPlan::"
            "test_misaligned_halo_rejected",)),
    Mutant("an unknown executor accepted", SERVE + "executor.py",
           "    if kind not in EXECUTOR_KINDS:\n", "    if False:\n",
           ("tests/serve/test_batching_server.py::TestServerConfig",)),
    Mutant("zero workers accepted", SERVER,
           "lowest = dict(workers=1,", "lowest = dict(workers=0,",
           ("tests/test_cli.py::TestServe::"
            "test_serve_bad_server_setting_fails_cleanly",)),
    Mutant("a NaN batch hold accepted", BATCHING,
           "if not max_wait_ms >= 0:", "if max_wait_ms < 0:",
           ("tests/serve/test_batching_server.py::TestMicroBatcher::"
            "test_invalid_config_rejected",)),
    Mutant("the batch takes one request too many", BATCHING,
           "while len(batch) < self.max_batch:",
           "while len(batch) <= self.max_batch:",
           ("tests/serve/test_batching_server.py::TestMicroBatcher::"
            "test_coalesces_up_to_max_batch",)),
    Mutant("lower priority dequeues first", BATCHING,
           "super().put((-request.priority, next(self._seq), request),",
           "super().put((request.priority, next(self._seq), request),",
           ("tests/serve/test_scheduling.py::TestRequestQueue::"
            "test_higher_priority_dequeues_first",)),
    Mutant("no in-flight dedup", SERVER,
           "twin = self._inflight.get(key)", "twin = None",
           ("tests/serve/test_batching_server.py::TestWorkerFrontend::"
            "test_in_flight_dedup_attaches_to_twin",)),
    Mutant("a second pickle of the net", SERVER,
           "blob = cache[entry.version] = pickle.dumps(part)",
           "blob = cache[entry.version] = pickle.loads(pickle.dumps("
           "pickle.dumps(part)))",
           ("tests/serve/test_one_call_loop.py::"
            "test_server_forward_is_the_tile_engine_plus_the_process_fork",)),
    Mutant("the CLI client retries in a loop", "src/repro/cli.py",
           "                        try:\n"
           "                            window.append(\n"
           "                                backend.submit(name, w, "
           "args.resolution))\n"
           "                        except shed:\n"
           "                            pass\n",
           "                        while True:\n"
           "                            try:\n"
           "                                window.append(backend.submit(\n"
           "                                    name, w, args.resolution))\n"
           "                                break\n"
           "                            except shed:\n"
           "                                pass\n",
           ("tests/serve/test_one_call_loop.py::"
            "test_no_hand_written_retry_loop_in_the_clients",)),
    # -- tiled inference: stitched == full field (PR 22) ------------------ #
    Mutant("the emitting halo forgets the refinements", SERVE + "tiling.py",
           "stage += [net.refinements, net.out_conv]",
           "stage += [net.out_conv]",
           ("tests/serve/test_tiling.py::TestExactness2D",)),
    Mutant("the predict paths plan below the receptive halo",
           SERVE + "tiling.py",
           "return plan_tiles(shape, tile, receptive_halo(model), multiple)",
           "return plan_tiles(shape, tile, receptive_halo(model) - 2, "
           "multiple)",
           ("tests/serve/test_tiling.py::TestExactness2D",)),
    Mutant("a receptive-field constant in the halo", SERVE + "tiling.py",
           "    return radius + radius % 2\n",
           "    return radius + radius % 2 + 4 * 2 ** net.depth"
           " - 4 * 2 ** net.depth\n",
           ("tests/serve/test_one_tile_engine.py::"
            "test_the_halo_recompute_engine_stays_deleted",)),
    # -- the conv engine and the fused ops (PRs 18, 23, 40) --------------- #
    Mutant("the epilogue halves the slope", "src/repro/backend/conv_plan.py",
           "(np.maximum if slope <= 1 else np.minimum)(out, slope * out,",
           "(np.maximum if slope <= 1 else np.minimum)(out, 0.5 * slope * out,",
           ("tests/backend/test_conv_plan.py::TestEpilogue",)),
    Mutant("plans are memoized across strides",
           "src/repro/backend/conv_plan.py",
           "sig = ConvSignature(tuple(x_shape), tuple(w_shape), tuple(stride),",
           "sig = ConvSignature(tuple(x_shape), tuple(w_shape), (1,) * len("
           "stride),",
           ("tests/backend/test_conv_plan.py::TestMemoization",)),
    Mutant("the conv result is moved and moved back",
           "src/repro/autograd/ops_conv.py",
           "        return conv_forward(plan, parts, w, None if b is None "
           "else realize(b),\n                            negative_slope)",
           "        return B.moveaxis(B.moveaxis(conv_forward(\n"
           "            plan, parts, w, None if b is None else realize(b),\n"
           "            negative_slope), 1, -1), -1, 1)",
           ("tests/backend/test_one_conv_engine.py::"
            "test_engine_results_are_returned_as_is",)),
    Mutant("the LeakyReLU gradient drops the slope",
           "src/repro/autograd/ops_activation.py",
           "        return B.maximum(f, negative_slope, out=f)",
           "        return B.maximum(f, 0.0, out=f)",
           ("tests/autograd/test_bn_act.py::TestFusedOp::"
            "test_matches_the_op_by_op_chain",)),
    Mutant("the arena is reused when too small", "src/repro/backend/pool.py",
           "                if arena.nbytes < nbytes:",
           "                if arena.nbytes < nbytes // 2:",
           ("tests/backend/test_backend.py::TestArena",)),
    Mutant("a profile opened inside another hides it",
           "src/repro/autograd/profiler.py",
           "running = running + (self.result,)", "running = (self.result,)",
           ("tests/autograd/test_profiler.py::TestProfiler::"
            "test_profiles_may_close_in_any_order",)),
    # -- the lazy backend's interpreter (PR 45) --------------------------- #
    Mutant("the interpreter reuses a leaf as scratch",
           "src/repro/backend/lazy/schedule.py",
           "if o and isinstance(v, np.ndarray)",
           "if isinstance(v, np.ndarray)",
           ("tests/backend/test_lazy.py::TestInterpreter",)),
    # -- the op set (PR 44) ----------------------------------------------- #
    Mutant("an op nothing applies", "src/repro/autograd/ops_activation.py",
           "class Sigmoid(Function):",
           "class Tanh(Function):\n"
           "    @staticmethod\n"
           "    def forward(ctx: Context, a: np.ndarray) -> np.ndarray:\n"
           "        return B.tanh(a)\n\n\n"
           "class Sigmoid(Function):",
           (REACH,)),
    # -- the reach ledger (PR 47) ----------------------------------------- #
    Mutant("the ledger skips nested defs", "tests/test_reach.py",
           '                    walk(child, f"{prefix}{child.name}.<locals>.")',
           "                    pass",
           ("tests/test_reach.py::test_a_planted_module_is_walked_def_by_def",)),
    # -- the FEM loss and the GMG baseline (PRs 19, 21, 25, 26) ---------- #
    Mutant("the energy drops its one half", "src/repro/backend/conv_plan.py",
           "    energy *= 0.5\n", "    energy *= 0.25\n",
           ("tests/fem/test_energy_kernel.py::test_value_matches_the_chain",)),
    Mutant("CG's history starts at the residual of zero, not of x0",
           "src/repro/fem/krylov.py",
           "history = [math.sqrt(inner(r, r)) / norm_b]",
           "history = [math.sqrt(inner(b, b)) / norm_b]",
           ("tests/fem/test_krylov.py::TestPlainCG::"
            "test_history_starts_at_the_residual_of_x0",)),
    Mutant("one more pre-smoothing sweep", "src/repro/fem/gmg.py",
           "x = self._smooth(level, None, b, self.n_pre)",
           "x = self._smooth(level, None, b, self.n_pre + 1)",
           ("tests/fem/test_gmg_cycle.py::"
            "test_solutions_equal_the_old_cycle_bitwise",)),
    Mutant("the split product skips its last block",
           "src/repro/fem/stencil.py",
           "list(_pool.map(run, self.blocks))",
           "list(_pool.map(run, self.blocks[:-1]))",
           ("tests/fem/test_parallel_stencil.py::"
            "test_the_split_product_is_the_matrix_product_bitwise",)),
    Mutant("the half-V schedule skips the coarsest level", CYCLES,
           'return cycle_levels("v", levels)[levels - 1:]',
           'return cycle_levels("v", levels)[levels:]',
           ("tests/multigrid/test_hierarchy_cycles.py",)),
    # -- one table, one quantile, one map (PR 49) -------------------------- #
    Mutant("W makes a V as its second coarse cycle", CYCLES,
           '"w": "ww"', '"w": "wv"',
           ("tests/multigrid/test_hierarchy_cycles.py::TestCycleSequences::"
            "test_w_4_levels",)),
    Mutant("the first CG residual is not normalised",
           "src/repro/fem/krylov.py",
           "history = [math.sqrt(inner(r, r)) / norm_b]",
           "history = [math.sqrt(inner(r, r))]",
           ("tests/fem/test_krylov.py::TestPlainCG::"
            "test_history_starts_at_one_from_zero",)),
    Mutant("the fleet measures latency from the last dispatch", FLEET,
           "self._latency.observe(now - state.submitted_at)",
           "self._latency.observe(now - state.attempt_started)",
           ("tests/serve/test_fleet_faults.py::TestSingleFaultFailover::"
            "test_hang_fault_ejected_via_timeout",)),
    Mutant("the ordered map writes a result at the wrong index",
           SERVE + "executor.py", "out[i] = result", "out[-1 - i] = result",
           ("tests/serve/test_executor.py::TestMapSemantics",)),
    # -- the training policy: one BLAS thread, fixed malloc thresholds --- #
    Mutant("the phase loop does not hold BLAS at one thread", TUNING,
           "    _fix_malloc_thresholds()\n    pin_blas_threads()\n",
           "    _fix_malloc_thresholds()\n",
           (f"{BLAS_PIN}::test_trained_weights_do_not_depend_on_the_thread_count",
            f"{BLAS_PIN}::test_the_phase_loop_pins_one_thread_once")),
    Mutant("the malloc policy is never applied", TUNING,
           "    _fix_malloc_thresholds()\n    pin_blas_threads()\n",
           "    pin_blas_threads()\n",
           ("tests/core/test_training_faults.py::"
            "test_a_warm_v_cycle_does_not_page_fault",)),
    Mutant("the hold calls OpenBLAS when already at one thread", TUNING,
           "    if found != 1:\n        lib.scipy_openblas_set_num_threads64_(1)",
           "    if True:\n        lib.scipy_openblas_set_num_threads64_(1)",
           (f"{BLAS_PIN}::test_a_hold_on_one_thread_calls_no_setter",
            f"{BLAS_PIN}::test_the_phase_loop_pins_one_thread_once")),
    Mutant("the last release resets one thread through OpenBLAS", TUNING,
           "if not _holds and _held_from != 1:", "if not _holds:",
           (f"{BLAS_PIN}::test_a_hold_on_one_thread_calls_no_setter",)),
    # -- deleted names grown back, one per checker kind ------------------- #
    Mutant("an environment switch in the conv engine",
           "src/repro/backend/conv_plan.py",
           "_PLAN_CACHE: dict",
           "import os\n_MODE = os.environ.get('REPRO_CONV_PLAN')\n"
           "_PLAN_CACHE: dict",
           (f"{DENY}[env:REPRO_CONV_PLAN@*]",)),
    Mutant("a None test on a span", BATCHING,
           "        span = self.tracer.start(\"batch.collect\", "
           "parent=batch[0].trace)\n",
           "        span = self.tracer.start(\"batch.collect\", "
           "parent=batch[0].trace)\n"
           "        if span is not None:\n            pass\n",
           (f"{DENY}[text:if req.trace_queue is not None:@serve/]",)),
    Mutant("a hedge counter in the fleet ledger", FLEET,
           "        self._armed: dict[_RouteState, None] = {}\n",
           "        self._armed: dict[_RouteState, None] = {}\n"
           "        self._hedged = 0\n",
           (f"{DENY}[ident:*hedge*@*]",)),
    Mutant("a second training step outside the trainer",
           "src/repro/distributed/data_parallel.py",
           "        if world < 1:\n",
           "        if world < 1 and dataset.backward():\n",
           (f"{DENY}[ident:*.backward@core/ distributed/ perf/ "
            "!core/trainer.py]",)),
    # -- evaluation mode is one fold --------------------------------------- #
    Mutant("the eval-mode fold ignores the running mean",
           "src/repro/nn/unet.py",
           "shift = bn.beta.data - bn.running_mean * scale",
           "shift = bn.beta.data - 0 * scale",
           ("tests/nn/test_conv_block_fold.py::TestFoldedBlock::"
            "test_equals_the_numpy_oracle",)),
    # -- tile-sized inference memory -------------------------------------- #
    Mutant("the box evaluator is one cell off", "src/repro/data/diffusivity.py",
           "xs, *rest = [self._modes(grid)[:, a:b] for a, b in box]",
           "xs, *rest = [self._modes(grid)[:, a + (a > 0):b + (a > 0)]"
           " for a, b in box]",
           ("tests/data/test_diffusivity.py::TestBoxes",)),
    Mutant("the mask profile runs along the last axis",
           "src/repro/core/problem.py",
           "shape = (1, 1, r) + (1,) * (self.ndim - 1)",
           "shape = (1, 1) + (1,) * (self.ndim - 1) + (r,)",
           ("tests/core/test_problem.py::TestMasks",)),
    Mutant("conv_backward_data leaves uncovered elements unzeroed",
           "src/repro/backend/conv_plan.py",
           "for d, rows in enumerate(plan.uncovered):",
           "for d, rows in enumerate(plan.uncovered[:0]):",
           ("tests/backend/test_conv_plan.py::TestInputGradientCoverage",)),
    # -- the tape keeps only what backward reads -------------------------- #
    # A node the walk has run is unreachable once its edges go, so a kept
    # ctx shows only while the edges are kept too: the row drops both.
    Mutant("backward keeps each node's ctx after running it",
           "src/repro/autograd/tensor.py",
           "            node.ctx = node.parents = None\n", "",
           (STEP_BYTES,)),
    Mutant("graph edges hold the parent Tensor instead of its node",
           "src/repro/autograd/function.py",
           "(a._node or a) if needed else None", "a if needed else None",
           (STEP_BYTES,)),
    Mutant("the in-place LeakyReLU skips each chunk's last element",
           "src/repro/autograd/ops_activation.py",
           "chunk = flat[i:i + LEAKY_CHUNK]",
           "chunk = flat[i:i + LEAKY_CHUNK - 1]",
           ("tests/autograd/test_bn_act.py::TestBranchFreeLeakyReLU::"
            "test_in_place_over_several_chunks",)),
]
