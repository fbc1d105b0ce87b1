"""Command-line interface: ``python -m repro <subcommand>``.

Subcommands
-----------
``solve``
    One traditional FEM solve for a given omega; optional GMG solver and
    ``.vti`` export.
``train``
    Multigrid training of MGDiffNet on a Sobol-sampled family; writes a
    checkpoint whose metadata records the architecture.
``predict``
    Load a checkpoint, run inference for an omega, optionally compare
    against FEM and export fields.  ``--tile``/``--halo`` switch to the
    tiled megavoxel path (exact, bounded memory).
``serve``
    Load checkpoints into a :class:`repro.serve.ModelRegistry` and run
    the batching/caching prediction server against a request load
    (Sobol-sampled by default, or ω vectors from a file), printing
    QPS, latency percentiles and cache statistics.  ``--shards N
    --replicas R`` runs the consistent-hash-routed
    :class:`repro.serve.ShardedFleet` instead: registry entries and
    request load spread over N simulated hosts with failover.
    ``--metrics-file`` / ``--trace-file`` turn on the telemetry layer
    and dump the metrics snapshot / request spans on exit.
``trace``
    Offline analysis of an exported span jsonl: ``trace summarize``
    prints the per-stage latency breakdown.
``scaling``
    Print a strong-scaling table from the performance model (Figs 9/10).
``info``
    Version and component summary.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

__all__ = ["main", "build_parser"]


def _parse_omega(text: str, m: int = 4) -> np.ndarray:
    parts = [float(v) for v in text.split(",")]
    if len(parts) != m:
        raise argparse.ArgumentTypeError(f"omega needs {m} values, got {len(parts)}")
    return np.asarray(parts)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _parse_tenant_quota(text: str) -> tuple[float, float]:
    """``--tenant-quota RATE[:BURST]`` -> (rate req/s, burst capacity);
    burst defaults to 2x the rate."""
    rate_text, _, burst_text = text.partition(":")
    try:
        rate = float(rate_text)
        burst = float(burst_text) if burst_text else 2.0 * rate
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected RATE[:BURST], got {text!r}") from None
    if rate <= 0 or burst < 1:
        raise argparse.ArgumentTypeError(
            f"need rate > 0 and burst >= 1, got rate={rate} burst={burst}")
    return rate, burst


def _parse_aging(text: str) -> float | None:
    """``--priority-aging``: positive rate, or 0 as a spelling of
    'strict priority' (the default)."""
    value = float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"priority aging must be >= 0, got {value}")
    return value or None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Distributed multigrid neural solvers "
        "(SC 2021 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="traditional FEM solve")
    p.add_argument("--ndim", type=int, default=2, choices=(2, 3))
    p.add_argument("--resolution", type=int, default=33)
    p.add_argument("--omega", type=_parse_omega,
                   default=np.array([0.3105, 1.5386, 0.0932, -1.2442]))
    p.add_argument("--solver", choices=("direct", "cg", "gmg"), default="direct")
    p.add_argument("--output", default=None, help=".vti output path")

    p = sub.add_parser("train", help="multigrid training")
    p.add_argument("--ndim", type=int, default=2, choices=(2, 3))
    p.add_argument("--resolution", type=int, default=32)
    p.add_argument("--samples", type=int, default=16)
    p.add_argument("--strategy", default="half_v",
                   choices=("v", "w", "f", "half_v"))
    p.add_argument("--levels", type=int, default=2)
    p.add_argument("--base-filters", type=int, default=8)
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--batch-size", type=int, default=8)
    p.add_argument("--lr", type=float, default=3e-3)
    p.add_argument("--max-epochs", type=int, default=60)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--checkpoint", default=None, help="output .npz path")
    p.add_argument("--validate", action="store_true",
                   help="held-out FEM validation after training")

    p = sub.add_parser("predict", help="inference from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--omega", type=_parse_omega,
                   default=np.array([0.3105, 1.5386, 0.0932, -1.2442]))
    p.add_argument("--resolution", type=int, default=None,
                   help="override inference resolution")
    p.add_argument("--compare-fem", action="store_true")
    p.add_argument("--output", default=None, help=".vti output path")
    p.add_argument("--tile", "--tile-size", type=_positive_int, dest="tile",
                   default=None, metavar="N",
                   help="tiled inference with this core tile size "
                        "(multiple of 2**depth)")
    p.add_argument("--halo", type=int, default=None,
                   help="even halo of the emitting tile sweep for --tile "
                        "(default: the decoder tail's radius)")
    p.add_argument("--stream", action="store_true",
                   help="stream tile cores as they complete (tiled path; "
                        "honours --tile/--halo/--executor) and report "
                        "first-tile vs full-field latency")
    p.add_argument("--executor", default="serial",
                   choices=("serial", "thread", "process"),
                   help="fan tiled inference across this worker pool")
    p.add_argument("--executor-workers", type=int, default=None,
                   help="pool size for --executor (default: CPU count)")
    p.add_argument("--retries", type=int, default=0, metavar="N",
                   help="retry transient failures (I/O, executor faults) "
                        "up to N extra attempts with jittered backoff")

    p = sub.add_parser("serve", help="batching/caching prediction server")
    p.add_argument("--checkpoint", action="append", required=True,
                   metavar="[NAME=]PATH",
                   help="checkpoint to serve; repeatable, optionally named")
    p.add_argument("--requests", type=int, default=64,
                   help="synthetic Sobol request count")
    p.add_argument("--omega-file", default=None,
                   help="CSV of ω rows to request instead of Sobol samples")
    p.add_argument("--resolution", type=int, default=None,
                   help="override serving resolution")
    p.add_argument("--max-batch", type=int, default=8)
    p.add_argument("--max-wait-ms", type=float, default=2.0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--cache-mb", type=int, default=64)
    p.add_argument("--backend", default=None,
                   help="array backend workers pin (e.g. 'lazy')")
    p.add_argument("--tile", "--tile-size", type=_positive_int, dest="tile",
                   default=None, metavar="N",
                   help="force tiled forwards with this core tile size")
    p.add_argument("--tile-threshold", type=int, default=2 ** 21,
                   help="voxel count above which forwards are tiled")
    p.add_argument("--repeat", type=int, default=1,
                   help="replay the request set (>1 exercises the cache)")
    p.add_argument("--executor", default="serial",
                   choices=("serial", "thread", "process"),
                   help="compute layer for the worker fleet (process "
                        "escapes the GIL for CPU-bound inference)")
    p.add_argument("--cache-dir", default=None,
                   help="spill the result cache to this directory "
                        "(one npz per entry; survives restarts)")
    p.add_argument("--spill-mb", type=int, default=None,
                   help="byte budget (MiB) for --cache-dir; LRU files "
                        "are evicted over budget (default: unbounded)")
    p.add_argument("--max-pending", type=int, default=0,
                   help="bound the request queue; overflowing submits "
                        "are rejected with backpressure (0: unbounded)")
    p.add_argument("--default-deadline", type=float, default=None,
                   metavar="SECONDS",
                   help="latency budget per request; requests still "
                        "queued past it fail with DeadlineExceeded")
    p.add_argument("--priority-aging", type=_parse_aging, default=None,
                   metavar="SECONDS",
                   help="age-escalation rate: a queued request overtakes "
                        "one priority level per this many seconds waited "
                        "(bounds bulk-lane starvation; default: strict)")
    p.add_argument("--shards", type=_positive_int, default=1,
                   help="shard the registry and request load over this "
                        "many simulated hosts (consistent-hash routed; "
                        "1: single server)")
    p.add_argument("--replicas", type=_positive_int, default=2,
                   help="replica count per routing key with --shards>1 "
                        "(writes fan out; reads fail over)")
    p.add_argument("--shard-timeout", type=float, default=None,
                   metavar="SECONDS",
                   help="with --shards>1: eject a shard that does not "
                        "answer within this budget and fail over")
    p.add_argument("--control", action="store_true",
                   help="with --shards>1: run the control plane (backoff "
                        "health probes + power-of-two-choices read "
                        "spreading) beside the fleet")
    p.add_argument("--autoscale-min", type=_positive_int, default=None,
                   metavar="N",
                   help="with --control: queue-depth autoscaling, lower "
                        "shard bound (implies --autoscale-max)")
    p.add_argument("--autoscale-max", type=_positive_int, default=None,
                   metavar="N",
                   help="with --control: autoscaling upper shard bound")
    p.add_argument("--tenant-quota", type=_parse_tenant_quota, default=None,
                   metavar="RATE[:BURST]",
                   help="with --control: per-tenant token-bucket admission "
                        "(RATE req/s sustained, BURST back-to-back; "
                        "default burst 2*RATE)")
    p.add_argument("--tenant", default=None,
                   help="tenant name the synthetic request load is "
                        "accounted to (default: unmetered)")
    p.add_argument("--retries", type=int, default=0, metavar="N",
                   help="with --shards>1: re-submit transient failures "
                        "(unavailable / overloaded / throttled) up to N "
                        "extra attempts, metered by the retry budget")
    p.add_argument("--retry-budget", type=_parse_tenant_quota, default=None,
                   metavar="RATE[:BURST]",
                   help="token bucket bounding fleet-wide retries "
                        "(RATE tokens/s sustained, BURST back-to-back; "
                        "default 2:8)")
    p.add_argument("--hedge", type=float, nargs="?", const=95.0,
                   default=None, metavar="QUANTILE",
                   help="with --shards>1: hedge slow reads — race a "
                        "backup request on another replica once this "
                        "tracked latency quantile elapses (default 95)")
    p.add_argument("--breaker-after", type=_positive_int, default=None,
                   metavar="N",
                   help="with --shards>1: open a (model, shard) circuit "
                        "after N consecutive faults and prefer other "
                        "replicas until it heals")
    p.add_argument("--breaker-reset", type=float, default=1.0,
                   metavar="SECONDS",
                   help="cool-down before an open circuit half-opens "
                        "and admits trial requests (default 1.0)")
    p.add_argument("--metrics-file", default=None, metavar="PATH",
                   help="enable telemetry and write the metrics-registry "
                        "snapshot (counters, gauges, quantile sketches) "
                        "to this JSON file on exit")
    p.add_argument("--trace-file", default=None, metavar="PATH",
                   help="enable telemetry and write the captured request "
                        "spans to this jsonl file on exit "
                        "(see 'repro trace summarize')")
    p.add_argument("--trace-sample", type=_positive_int, default=1,
                   metavar="N",
                   help="trace one request in N (whole subtrees; "
                        "default 1 = every request)")

    p = sub.add_parser("trace", help="inspect exported telemetry traces")
    p.add_argument("action", choices=("summarize",),
                   help="summarize: per-stage latency breakdown")
    p.add_argument("file", help="span jsonl written by "
                                "'repro serve --trace-file'")

    p = sub.add_parser("scaling", help="strong-scaling table (perf model)")
    p.add_argument("--cluster", choices=("azure", "bridges2"), default="azure")
    p.add_argument("--t-sample", type=float, default=2.8125,
                   help="seconds/sample (default: paper-calibrated V100)")
    p.add_argument("--n-params", type=int, default=1_000_000)
    p.add_argument("--samples", type=int, default=1024)
    p.add_argument("--local-batch", type=int, default=2)
    p.add_argument("--max-workers", type=int, default=512)

    sub.add_parser("info", help="version and component summary")
    return parser


# --------------------------------------------------------------------- #
def _cmd_solve(args) -> int:
    from .core.problem import PoissonProblem
    from .fem import GeometricMultigrid

    problem = PoissonProblem(args.ndim, args.resolution)
    if args.solver == "gmg":
        grid = problem.grid()
        gmg = GeometricMultigrid(grid, problem.nu(args.omega),
                                 problem.bc())
        u = gmg.solve(tol=1e-9)
        rep = gmg.last_report
        print(f"GMG: {gmg.num_levels} levels, {rep.iterations} cycles, "
              f"residual {rep.residual:.2e}")
    else:
        u = problem.fem_solve(args.omega, method=args.solver)
    print(f"solution range: [{u.min():.4f}, {u.max():.4f}]")
    if args.output:
        from .utils.vtk import write_vti

        path = write_vti(args.output, {"u": u, "nu": problem.nu(args.omega)},
                         spacing=problem.grid().h)
        print(f"wrote {path}")
    return 0


def _cmd_train(args) -> int:
    from .core.checkpoint import save_checkpoint
    from .core.mg_trainer import MGTrainConfig, MultigridTrainer
    from .core.mgdiffnet import MGDiffNet
    from .core.problem import PoissonProblem

    problem = PoissonProblem(args.ndim, args.resolution)
    dataset = problem.make_dataset(args.samples)
    model = MGDiffNet(ndim=args.ndim, base_filters=args.base_filters,
                      depth=args.depth, rng=args.seed)
    config = MGTrainConfig(batch_size=args.batch_size, lr=args.lr,
                           max_epochs_per_level=args.max_epochs,
                           seed=args.seed)
    trainer = MultigridTrainer(model, problem, dataset,
                               strategy=args.strategy, levels=args.levels,
                               config=config)
    result = trainer.train()
    print(f"trained {args.strategy} x{args.levels} levels in "
          f"{result.total_time:.1f}s, final loss {result.final_loss:.5f}")
    for rec in result.records:
        print(f"  L{rec.level} ({rec.resolution}^{args.ndim}) {rec.phase}: "
              f"{rec.result.epochs_run} epochs, {rec.wall_time:.2f}s")
    if args.validate:
        from .core.validation import Validator

        res = Validator(problem, n_samples=4).evaluate(model)
        print(res)
    if args.checkpoint:
        path = save_checkpoint(
            args.checkpoint, model, trainer.trainer.optimizer,
            epoch=trainer.trainer.global_epoch,
            extra={"ndim": args.ndim, "base_filters": args.base_filters,
                   "depth": args.depth, "resolution": args.resolution})
        print(f"wrote {path}")
    return 0


def _cmd_predict(args) -> int:
    import time

    from .core.metrics import compare_fields
    from .serve import (
        ModelRegistry, RegistryError, RetryConfig, RetryPolicy,
        make_executor, retry_call, stream_tiled_predict,
    )

    # Local inference has no fleet to storm, but transient I/O or
    # executor faults (a spill read race, a worker lost to an OOM kill)
    # deserve the same budgeted, jittered second chance.
    policy = RetryPolicy(
        RetryConfig(max_attempts=args.retries + 1, budget_rate=1.0,
                    budget_burst=max(1, args.retries)),
        retryable=lambda exc: isinstance(exc, (OSError, RuntimeError)))
    registry = ModelRegistry()
    try:
        entry = registry.load("model", args.checkpoint, validate=False)
    except RegistryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    model, problem = entry.model, entry.problem
    resolution = args.resolution or problem.resolution
    executor = make_executor(args.executor, args.executor_workers)

    def forward() -> np.ndarray:
        """Assemble tile cores as the pool completes them; without
        --tile the plan is one tile, i.e. the untiled forward."""
        out = None
        n_tiles = 0
        t_start = time.perf_counter()
        for _, sl, core in stream_tiled_predict(
                model, problem, args.omega, resolution=resolution,
                tile=args.tile, halo=args.halo, executor=executor):
            if out is None:
                first_s = time.perf_counter() - t_start
                out = np.empty((core.shape[0],)
                               + problem.grid(resolution).shape,
                               dtype=core.dtype)
            out[(slice(None),) + sl] = core
            n_tiles += 1
        if args.stream:
            # The gap between the two latencies is the streaming win —
            # a consumer (renderer, outer solver loop) starts on the
            # first core while the rest are still computing.
            print(f"streamed {n_tiles} tiles: first tile in "
                  f"{first_s * 1e3:.1f} ms, full field in "
                  f"{(time.perf_counter() - t_start) * 1e3:.1f} ms")
        return out[0]

    try:
        u = retry_call(policy, forward, on_retry=lambda exc, delay: print(
            f"transient failure ({exc}); retrying in {delay * 1e3:.0f} ms",
            file=sys.stderr))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        executor.close()
    print(f"predicted field at {resolution}^{problem.ndim}: "
          f"range [{u.min():.4f}, {u.max():.4f}]")
    if args.compare_fem:
        ref = problem.fem_solve(args.omega, resolution=resolution)
        print(f"vs FEM: {compare_fields(u, ref)}")
    if args.output:
        from .utils.vtk import write_vti

        path = write_vti(args.output, {"u": u},
                         spacing=problem.grid(resolution).h)
        print(f"wrote {path}")
    return 0


def _serve_request_loads(args, names, get_entry) -> dict[str, np.ndarray]:
    """Per-model request ω sets: the --omega-file rows, or Sobol samples
    sized to each model's parameter space — the same workload whether
    the backend is one server or a fleet."""
    from .data.sobol import sample_omega

    file_omegas = (np.atleast_2d(np.loadtxt(args.omega_file, delimiter=","))
                   if args.omega_file else None)
    loads: dict[str, np.ndarray] = {}
    for name in names:
        if file_omegas is not None:
            loads[name] = file_omegas
        else:
            entry = get_entry(name)
            loads[name] = sample_omega(args.requests, entry.problem.field.m,
                                       omega_range=entry.problem.omega_range)
    return loads


_RETRY_WALL_S = 30.0   # total retry wall-time cap per client submit


def _backoff_policy():
    """The serve client's answer to load shedding, as a retry policy.

    Backpressure gets seeded jittered exponential backoff (2 ms
    doubling to a 100 ms cap — fixed delays from many clients re-collide
    forever); a throttled tenant sleeps exactly the ``retry_after_s``
    its rejection names, as ``plan`` does for every throttle.  What ends
    a submit is the ``_RETRY_WALL_S`` cap the driver is handed, never
    these counts (giving up early would silently drop the request): 1024
    jittered tries at the 100 ms window sleep ~51 s (σ < 1 s), and one
    ``plan`` call outlasts the microsecond a token refills in — so
    ``denied`` and ``exhausted`` stay 0 (tested).
    """
    from .serve import (
        RetryConfig, RetryPolicy, ServerOverloaded, TenantThrottled,
    )

    return RetryPolicy(
        RetryConfig(max_attempts=1024, base_backoff_s=0.002,
                    max_backoff_s=0.1, budget_rate=1e6, budget_burst=1e6),
        retryable=lambda exc: isinstance(exc, (ServerOverloaded,
                                               TenantThrottled)))


def _serve_telemetry(args):
    """Build the telemetry bundle when any ``--metrics-file`` /
    ``--trace-file`` flag asks for it; ``None`` keeps serving free."""
    if args.metrics_file is None and args.trace_file is None:
        return None
    from .serve import Telemetry

    return Telemetry(trace_sample=args.trace_sample)


def _write_telemetry(args, telemetry) -> None:
    """Flush the telemetry surfaces: echo the per-stage breakdown,
    then dump the metrics snapshot / span jsonl where asked."""
    if telemetry is None:
        return
    from .serve import export_jsonl, format_summary, summarize_spans

    spans = telemetry.tracer.spans()
    if spans:
        print("trace: per-stage latency breakdown")
        print(format_summary(summarize_spans(spans)))
    if args.metrics_file is not None:
        with open(args.metrics_file, "w") as fh:
            fh.write(telemetry.metrics.to_json())
        print(f"metrics -> {args.metrics_file}")
    if args.trace_file is not None:
        with open(args.trace_file, "w") as fh:
            fh.write(export_jsonl(spans))
        print(f"trace -> {args.trace_file} ({len(spans)} spans)")


def _build_fleet(args, config):
    """``--shards N``: the fleet, its resilience policies (``--retries``
    / ``--retry-budget`` / ``--hedge`` / ``--breaker-after``) and — with
    ``--control`` / ``--autoscale-min`` / ``--tenant-quota`` — the
    control plane beside it.  Returns ``(fleet, plane or None)``."""
    from .serve import (
        BreakerConfig, ControlConfig, ControlPlane, FleetConfig,
        HedgeConfig, ResilienceConfig, RetryConfig, ShardedFleet,
        install_resilience,
    )

    fleet = ShardedFleet(FleetConfig(
        shards=args.shards, replicas=args.replicas,
        shard_timeout_s=args.shard_timeout, server=config))
    retry_cfg = None
    if args.retries > 0 or args.retry_budget is not None:
        rate, burst = args.retry_budget or (2.0, 8.0)
        retry_cfg = RetryConfig(max_attempts=max(args.retries, 1) + 1,
                                budget_rate=rate, budget_burst=burst)
    install_resilience(fleet, ResilienceConfig(
        retry=retry_cfg,
        hedge=(HedgeConfig(quantile=args.hedge)
               if args.hedge is not None else None),
        breaker=(BreakerConfig(failure_threshold=args.breaker_after,
                               reset_after_s=args.breaker_reset)
                 if args.breaker_after is not None else None)))
    plane = None
    if (args.control or args.autoscale_min is not None
            or args.tenant_quota is not None):
        rate, burst = args.tenant_quota or (None, None)
        plane = ControlPlane(fleet, ControlConfig(
            tenant_rate=rate, tenant_burst=burst,
            autoscale=args.autoscale_min is not None,
            autoscale_min=args.autoscale_min or 1,
            autoscale_max=(args.autoscale_max or
                           max(args.shards, args.autoscale_min or 1))))
    return fleet, plane


def _cmd_serve(args) -> int:
    """``repro serve``: build the backend — one ``PredictionServer``, or
    with ``--shards N`` a ``ShardedFleet`` plus its policies — load the
    checkpoints, push the request load through one submit/drain loop
    (every client retry goes through ``retry_call``) and report."""
    import contextlib
    import time
    from concurrent.futures import Future

    from .serve import (
        DeadlineExceeded, FleetUnavailable, ModelRegistry, PredictionServer,
        RegistryError, ServerConfig, ServerOverloaded, TenantThrottled,
        retry_call,
    )

    config = ServerConfig(
        max_batch=args.max_batch, max_wait_ms=args.max_wait_ms,
        workers=args.workers, cache_bytes=args.cache_mb * 1024 * 1024,
        backend=args.backend, tile=args.tile,
        tile_threshold_voxels=args.tile_threshold,
        executor=args.executor, cache_dir=args.cache_dir,
        spill_max_bytes=(args.spill_mb * 1024 * 1024
                         if args.spill_mb is not None else None),
        max_pending=args.max_pending,
        default_deadline_s=args.default_deadline,
        priority_aging_s=args.priority_aging)
    sharded = args.shards > 1
    telemetry = _serve_telemetry(args)
    try:
        if sharded:
            backend, plane = _build_fleet(args, config)
            models = backend          # load / names / get, fanned out
        else:
            backend, plane = PredictionServer(ModelRegistry(), config), None
            models = backend.registry
        if telemetry is not None:
            backend.enable_telemetry(telemetry)
        for spec in args.checkpoint:
            name, _, path = spec.rpartition("=")
            entry = models.load(name or "model", path or spec)
            print(f"loaded {entry}" + (
                f" -> replicas {backend.replicas_for(name or 'model')}"
                if sharded else ""))
    except (RegistryError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    names = models.names()
    loads = _serve_request_loads(args, names, models.get)
    backoff = _backoff_policy()
    # A fleet's futures drain through await_result, so --shard-timeout
    # ejects hung shards on this path too, and its installed retry
    # policy re-submits transient verdicts; one server has neither.
    wait, retry, note_retry = (
        (backend.await_result, backend.retry, backend.note_retry)
        if sharded else (Future.result, None, None))
    shed = (DeadlineExceeded, FleetUnavailable, ServerOverloaded,
            TenantThrottled)   # verdicts counted in the backend's stats

    def submit(name, w):
        """One submit under the backoff policy; ``None`` when it is
        still shed after the wall-time cap (or the key is unavailable
        right now) — reported below from the stats."""
        try:
            return retry_call(
                backoff, lambda: backend.submit(name, w, args.resolution,
                                                tenant=args.tenant),
                max_wait_s=_RETRY_WALL_S)
        except shed:
            return None

    def drain(name, w, future):
        """Await one pipelined future; a transient verdict re-submits
        through the backend's retry policy (each retry a fresh,
        individually conserved submit).  ``ServerOverloaded`` can arrive
        through the future when a failover re-dispatch lands on a full
        replica queue."""
        first = [future]

        def attempt() -> None:
            f = first.pop() if first else submit(name, w)
            if f is not None:
                wait(f)

        try:
            retry_call(retry, attempt, on_retry=note_retry)
        except shed:
            pass

    t0 = time.perf_counter()
    try:
        with backend, (plane or contextlib.nullcontext()):
            for _ in range(max(1, args.repeat)):
                futures = [(name, w, submit(name, w))
                           for name in names for w in loads[name]]
                for pending in futures:
                    drain(*pending)
            # Every future has resolved: measure before the with-block
            # exit so worker join + pool teardown don't deflate QPS.
            wall = time.perf_counter() - t0
    except ValueError as exc:
        # Bad request parameters (ω arity, tile/halo alignment, ...).
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        backend.close()

    if sharded:
        _report_fleet(args, backend, plane, wall)
    else:
        _report_server(backend, wall)
    _write_telemetry(args, telemetry)
    return 0


def _report_server(server, wall: float) -> None:
    s, c, config = server.stats, server.cache.stats, server.config
    print(f"served {s.requests} requests in {wall:.3f}s "
          f"({s.requests / wall:.1f} QPS) with {config.workers} "
          f"{config.executor} worker(s)")
    print(f"latency p50 {s.p50 * 1e3:.2f} ms, p99 {s.p99 * 1e3:.2f} ms; "
          f"{s.batches} batches, mean size {s.mean_batch_size:.2f}, "
          f"{s.tiled_forwards} tiled forwards, {s.dedup_hits} dedup hits")
    print(f"scheduling: {s.rejected} backpressure rejections, "
          f"{s.expired} expired deadlines")
    print(f"cache: {c.hits} hits / {c.misses} misses "
          f"({100 * c.hit_rate:.0f}%), {c.bytes_cached >> 20} MiB resident, "
          f"{c.evictions} evictions, {c.spill_hits} spill hits, "
          f"{c.spill_writes} spill writes, {c.spill_evictions} spill "
          f"evictions")


def _report_fleet(args, fleet, plane, wall: float) -> None:
    s = fleet.stats
    print(f"served {s.served} of {s.submitted} requests in {wall:.3f}s "
          f"({s.served / wall:.1f} QPS) across {s.shards} shards "
          f"(replicas={min(args.replicas, args.shards)}, "
          f"{s.healthy_shards} healthy)")
    print(f"latency p50 {s.p50 * 1e3:.2f} ms, p99 {s.p99 * 1e3:.2f} ms; "
          f"{s.batches} batches, {s.cache_hits} cache hits, "
          f"{s.dedup_hits} dedup hits, {s.tiled_forwards} tiled forwards")
    print(f"scheduling: {s.rejected} rejections, {s.expired} expired, "
          f"{s.throttled} throttled; "
          f"faults: {s.shard_faults} ejections, {s.failovers} failovers, "
          f"{s.readmissions} readmissions; lost: {s.lost}")
    if (fleet.retry, fleet.hedge, fleet.breaker) != (None, None, None):
        print(f"resilience: {s.retried} retried, {s.hedges} hedges "
              f"({s.hedged_wins} wins, {s.hedge_cancels} cancelled), "
              f"{s.breaker_open} breaker deflections")
    print(f"interconnect (simulated): {s.send_calls} hops, "
          f"{s.send_bytes >> 20} MiB, "
          f"{s.virtual_comm_seconds * 1e3:.2f} ms virtual")
    if plane is not None:
        cs = plane.stats
        print(f"control plane: {cs.ticks} ticks, {cs.probes} probes "
              f"({cs.backoffs} backed off), {cs.readmissions} readmissions, "
              f"{cs.decommissions} decommissions "
              f"({cs.reregistrations} re-registrations); "
              f"spread: {cs.balance_diversions}/{cs.balance_decisions} "
              f"reads diverted; scale: +{cs.scale_ups}/-{cs.scale_downs}")
        for tenant, row in sorted(cs.tenants.items()):
            print(f"  tenant {tenant}: {row['admitted']} admitted, "
                  f"{row['throttled']} throttled")
    for sid, row in s.per_shard.items():
        state = "up" if row["healthy"] else "DOWN"
        print(f"  {sid} [{state}] requests={row['requests']} "
              f"cache_hits={row['cache_hits']} models={row['models']}")


def _cmd_trace(args) -> int:
    from .serve import format_summary, parse_jsonl, summarize_spans

    try:
        with open(args.file) as fh:
            spans = parse_jsonl(fh.read())
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not spans:
        print(f"no spans in {args.file}", file=sys.stderr)
        return 1
    print(format_summary(summarize_spans(spans)))
    return 0


def _cmd_scaling(args) -> int:
    from .perf import AZURE_NDV2, BRIDGES2_CPU, strong_scaling_study
    from .utils.viz import format_table

    spec = AZURE_NDV2 if args.cluster == "azure" else BRIDGES2_CPU
    ps = []
    p = 1
    while p <= args.max_workers:
        ps.append(p)
        p *= 2
    pts = strong_scaling_study(ps, n_samples=args.samples,
                               t_sample=args.t_sample,
                               n_params=args.n_params, spec=spec,
                               local_batch=args.local_batch)
    rows = [[pt.world_size, pt.nodes, f"{pt.epoch_seconds:.2f}",
             f"{pt.speedup:.1f}x", f"{pt.efficiency:.3f}"] for pt in pts]
    print(f"cluster: {spec.name}")
    print(format_table(["workers", "nodes", "epoch (s)", "speedup", "eff"],
                       rows))
    return 0


def _cmd_info(args) -> int:
    from . import __version__

    print(f"repro {__version__} — reproduction of 'Distributed multigrid "
          f"neural solvers on megavoxel domains' (SC 2021)")
    print("components: autograd, nn (U-Net), optim, fem (+GMG), data "
          "(Sobol/Eq.10), multigrid (V/W/F/Half-V), distributed "
          "(ring all-reduce), perf (Table 6 models)")
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "train": _cmd_train,
    "predict": _cmd_predict,
    "serve": _cmd_serve,
    "trace": _cmd_trace,
    "scaling": _cmd_scaling,
    "info": _cmd_info,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
