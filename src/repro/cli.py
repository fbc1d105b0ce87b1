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
    against FEM and export fields.  ``--tile`` switches to the tiled
    megavoxel path (exact, bounded memory: each tile's halo is the
    network's receptive field).
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
    p.add_argument("--stream", action="store_true",
                   help="stream tile cores as they complete (tiled path; "
                        "honours --tile/--executor) and report "
                        "first-tile vs full-field latency")
    p.add_argument("--executor", default="serial",
                   choices=("serial", "thread", "process"),
                   help="fan tiled inference across this worker pool")
    p.add_argument("--executor-workers", type=int, default=None,
                   help="pool size for --executor (default: CPU count)")

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
    p.add_argument("--max-wait-ms", type=float, default=2.0,
                   help="longest hold of a batch's first request, paid "
                        "only while requests arrive within it on average")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--cache-mb", type=int, default=64)
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
    p.add_argument("--max-pending", type=int, default=0,
                   help="bound the request queue (overflowing submits "
                        "are rejected with backpressure) and keep at most "
                        "this many requests outstanding (0: unbounded)")
    p.add_argument("--default-deadline", type=float, default=None,
                   metavar="SECONDS",
                   help="latency budget per request; requests still "
                        "queued past it fail with DeadlineExceeded")
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
    p.add_argument("--metrics-file", default=None, metavar="PATH",
                   help="enable telemetry and write the metrics-registry "
                        "snapshot (views and quantile sketches) to this "
                        "JSON file on exit")
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
    p.add_argument("--max-workers", type=_positive_int, default=512)

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

    try:
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
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
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
        ModelRegistry, RegistryError, make_executor, stream_tiled_predict,
    )

    registry = ModelRegistry()
    try:
        entry = registry.load("model", args.checkpoint, validate=False)
    except RegistryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    model, problem = entry.model, entry.problem
    resolution = args.resolution or problem.resolution
    # Assemble tile cores as the pool completes them; without --tile the
    # plan is one tile, i.e. the untiled forward.
    out = None
    n_tiles = 0
    t_start = time.perf_counter()
    try:
        with make_executor(args.executor, args.executor_workers) as executor:
            for _, sl, core in stream_tiled_predict(
                    model, problem, args.omega, resolution=resolution,
                    tile=args.tile, executor=executor):
                if out is None:
                    first_s = time.perf_counter() - t_start
                    out = np.empty((core.shape[0],)
                                   + problem.grid(resolution).shape,
                                   dtype=core.dtype)
                out[(slice(None),) + sl] = core
                n_tiles += 1
            full_s = time.perf_counter() - t_start
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.stream:
        # The gap between the two latencies is the streaming win — a
        # consumer (renderer, outer solver loop) starts on the first
        # core while the rest are still computing.
        print(f"streamed {n_tiles} tiles: first tile in "
              f"{first_s * 1e3:.1f} ms, full field in {full_s * 1e3:.1f} ms")
    u = out[0]
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


def _cmd_serve(args) -> int:
    """``repro serve``: build the backend — one ``PredictionServer``, or
    with ``--shards N`` a ``ShardedFleet`` — load the checkpoints, push
    the request load through one submit/drain loop and report.

    With ``--max-pending N`` the client keeps at most N requests
    outstanding: it drains the oldest future before it submits the
    next.  A request leaves the queue before its future resolves
    (expired ones included), so the client never overflows a queue of
    that bound.  A verdict that still arrives (``ServerOverloaded``,
    ``FleetUnavailable``, ``DeadlineExceeded``) is counted in the
    backend's stats and reported, not retried.
    """
    import time
    from collections import deque
    from concurrent.futures import Future

    from .serve import (
        DeadlineExceeded, FleetConfig, FleetUnavailable, ModelRegistry,
        PredictionServer, RegistryError, ServerConfig, ServerOverloaded,
        ShardedFleet,
    )

    sharded = args.shards > 1
    telemetry = _serve_telemetry(args)
    # Verdicts counted in the backend's stats.
    shed = (DeadlineExceeded, FleetUnavailable, ServerOverloaded)
    window: deque[Future] = deque()
    backend = None
    try:
        config = ServerConfig(
            max_batch=args.max_batch, max_wait_ms=args.max_wait_ms,
            workers=args.workers, cache_bytes=args.cache_mb * 1024 * 1024,
            tile=args.tile, tile_threshold_voxels=args.tile_threshold,
            executor=args.executor, max_pending=args.max_pending,
            default_deadline_s=args.default_deadline)
        if sharded:
            backend = ShardedFleet(FleetConfig(
                shards=args.shards, replicas=args.replicas,
                shard_timeout_s=args.shard_timeout, server=config))
            models = backend          # load / names / get, fanned out
        else:
            backend = PredictionServer(ModelRegistry(), config)
            models = backend.registry
        if telemetry is not None:
            backend.enable_telemetry(telemetry)
        for spec in args.checkpoint:
            name, _, path = spec.rpartition("=")
            entry = models.load(name or "model", path or spec)
            print(f"loaded {entry}" + (
                f" -> replicas {backend.replicas_for(name or 'model')}"
                if sharded else ""))
        names = models.names()
        loads = _serve_request_loads(args, names, models.get)

        def drain_oldest() -> None:
            try:
                window.popleft().result()
            except shed:
                pass

        t0 = time.perf_counter()
        with backend:
            for _ in range(max(1, args.repeat)):
                for name in names:
                    for w in loads[name]:
                        if 0 < args.max_pending <= len(window):
                            drain_oldest()
                        try:
                            window.append(
                                backend.submit(name, w, args.resolution))
                        except shed:
                            pass
                while window:
                    drain_oldest()
            # Every future has resolved: measure before the with-block
            # exit so worker join + pool teardown don't deflate QPS.
            wall = time.perf_counter() - t0
    except (RegistryError, ValueError, OSError) as exc:
        # A missing checkpoint or --omega-file, an unparsable ω row, a
        # bad server setting, bad request parameters (ω arity, tile
        # alignment, ...).
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if backend is not None:
            backend.close()

    if sharded:
        _report_fleet(args, backend, wall)
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
          f"{c.evictions} evictions")


def _report_fleet(args, fleet, wall: float) -> None:
    s = fleet.stats
    print(f"served {s.served} of {s.submitted} requests in {wall:.3f}s "
          f"({s.served / wall:.1f} QPS) across {s.shards} shards "
          f"(replicas={min(args.replicas, args.shards)}, "
          f"{s.healthy_shards} healthy)")
    print(f"latency p50 {s.p50 * 1e3:.2f} ms, p99 {s.p99 * 1e3:.2f} ms; "
          f"{s.batches} batches, {s.cache_hits} cache hits, "
          f"{s.dedup_hits} dedup hits, {s.tiled_forwards} tiled forwards")
    print(f"scheduling: {s.rejected} rejections, {s.expired} expired, "
          f"{s.unavailable} unavailable; "
          f"faults: {s.shard_faults} ejections, {s.failovers} failovers, "
          f"{s.readmissions} readmissions; lost: {s.lost}")
    for sid, row in s.per_shard.items():
        state = "up" if row["healthy"] else "DOWN"
        print(f"  {sid} [{state}] requests={row['requests']} "
              f"cache_hits={row['cache_hits']} models={row['models']}")


def _cmd_trace(args) -> int:
    from .serve import format_summary, parse_jsonl, summarize_spans

    try:
        with open(args.file) as fh:
            spans = parse_jsonl(fh.read())
    except (OSError, ValueError) as exc:
        # A missing file, or a line that is not a span (names the line).
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
