"""Serving: train once, then answer many ω queries through the
batching/caching prediction server — the paper's Sec. 4.3 economics.

Trains a small model, registers it, and compares four ways to answer
the same Sobol-sampled request load:

1. sequential single-request inference (the baseline),
2. the worker-thread server with dynamic micro-batching,
3. the same server with a *process-pool* compute layer (``--executor
   process`` escapes the GIL: fused forwards run in worker processes,
   each with a freshly initialised backend),
4. a replay of the same load (every request a cache hit).

Usage::

    python examples/serving.py [--resolution 16] [--requests 64]
    python examples/serving.py --executor process
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro import MGDiffNet, MGTrainConfig, MultigridTrainer, PoissonProblem2D
from repro.data.sobol import sample_omega
from repro.serve import ModelRegistry, PredictionServer, ServerConfig


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--resolution", type=int, default=16)
    parser.add_argument("--requests", type=int, default=64)
    parser.add_argument("--max-batch", type=int, default=16)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--executor", default="process",
                        choices=("serial", "thread", "process"),
                        help="compute layer for comparison step 3")
    args = parser.parse_args()

    problem = PoissonProblem2D(args.resolution)
    model = MGDiffNet(ndim=2, base_filters=8, depth=2, rng=0)
    trainer = MultigridTrainer(
        model, problem, problem.make_dataset(8), strategy="half_v", levels=2,
        config=MGTrainConfig(batch_size=4, max_epochs_per_level=10))
    result = trainer.train()
    print(f"trained in {result.total_time:.1f}s, "
          f"final loss {result.final_loss:.5f}")

    registry = ModelRegistry()
    registry.register_model("demo", model, problem)
    omegas = sample_omega(args.requests, problem.field.m)

    # 1. Sequential baseline: one forward per request, no server.
    t0 = time.perf_counter()
    for omega in omegas:
        model.predict(problem, omega)
    t_seq = time.perf_counter() - t0

    # 2. Batched serving (cold cache), compute inline on worker threads.
    server = PredictionServer(registry, ServerConfig(
        max_batch=args.max_batch, max_wait_ms=20, workers=args.workers))
    t0 = time.perf_counter()
    with server:
        futures = [server.submit("demo", w) for w in omegas]
        fields = np.stack([f.result() for f in futures])
    t_batched = time.perf_counter() - t0

    # 3. Same load through a parallel compute executor (cold cache).
    pool_server = PredictionServer(registry, ServerConfig(
        max_batch=args.max_batch, max_wait_ms=20, workers=args.workers,
        executor=args.executor))
    t0 = time.perf_counter()
    with pool_server:   # exit also releases the process pool
        futures = [pool_server.submit("demo", w) for w in omegas]
        pool_fields = np.stack([f.result() for f in futures])
        # All futures resolved: measure before the exit so pool
        # teardown does not count against the executor's QPS.
        t_pool = time.perf_counter() - t0
    np.testing.assert_allclose(pool_fields, fields, atol=1e-6)

    # 4. Replay: the cache answers everything.
    t0 = time.perf_counter()
    replay = server.predict_many("demo", omegas)
    t_cached = time.perf_counter() - t0
    np.testing.assert_allclose(replay, fields, atol=1e-6)

    n = len(omegas)
    print(f"sequential      : {n / t_seq:8.1f} QPS")
    print(f"batched threads : {n / t_batched:8.1f} QPS "
          f"({t_seq / t_batched:.2f}x, mean batch "
          f"{server.stats.mean_batch_size:.1f})")
    print(f"{args.executor:7s} executor: {n / t_pool:8.1f} QPS "
          f"({t_seq / t_pool:.2f}x)")
    print(f"cache replay    : {n / t_cached:7.1f} QPS "
          f"(hit rate {100 * server.cache.stats.hit_rate:.0f}%)")


if __name__ == "__main__":
    main()
