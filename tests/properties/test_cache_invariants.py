"""Randomized-op invariant tests for the serving cache and buffer pool.

Unit tests pin single behaviors; these machines drive :class:`LRUCache`
(the byte-bounded memory LRU) and :class:`BufferPool` through ~1k random
operations per seed and re-check the structural invariants after
*every* op — the byte bounds, accounting identities and aliasing rules
the concurrent server leans on.  Failures print the seed and op index,
so any counterexample replays deterministically.
"""

import sys
import threading
from collections import OrderedDict

import numpy as np
import pytest

from repro.backend import BufferPool
from repro.serve import LRUCache

SEEDS = [0, 1, 2, 3, 4]
N_OPS = 1000

MEM_BUDGET = 4 * 1024


def _value(rng: np.random.Generator) -> np.ndarray:
    # Sizes straddle the budget: most entries fit, some are too big.
    side = int(rng.choice([2, 4, 8, 16, 24, 40, 64]))
    return rng.standard_normal((side, side)).astype(np.float32)


def _check_cache(cache: LRUCache, ctx: str) -> None:
    """Structural invariants that must hold after every operation."""
    # Snapshot under the lock, assert outside it: a failing assert's
    # explanation reprs the cache, which takes the same lock.
    with cache._lock:
        values = list(cache._entries.values())
        bytes_cached, entries = cache.stats.bytes_cached, cache.stats.entries
    assert bytes_cached == sum(v.nbytes for v in values), ctx
    assert entries == len(values), ctx
    assert bytes_cached <= cache.max_bytes, f"{ctx}: memory budget exceeded"
    for v in values:
        assert not v.flags.writeable, f"{ctx}: mutable cached entry"


@pytest.mark.parametrize("seed", SEEDS)
def test_lru_cache_invariants_under_random_ops(seed):
    rng = np.random.default_rng(seed)
    keys = [(f"v{v}", i) for v in (1, 2) for i in range(8)]
    cache = LRUCache(max_bytes=MEM_BUDGET)
    # A reference LRU: key -> last value put, least recent first.  The
    # cache must hold exactly these keys in exactly this order and serve
    # the last put bit for bit.
    model: OrderedDict[tuple, np.ndarray] = OrderedDict()

    for step in range(N_OPS):
        ctx = f"seed={seed} step={step}"
        op = rng.choice(["put", "get", "clear"], p=[0.47, 0.47, 0.06])
        key = keys[int(rng.integers(len(keys)))]
        if op == "put":
            value = _value(rng)
            stored = cache.put(key, value)
            if value.nbytes > MEM_BUDGET:
                assert stored is None, ctx
            else:
                assert not stored.flags.writeable, ctx
                np.testing.assert_array_equal(stored, value, err_msg=ctx)
                model.pop(key, None)
                model[key] = value.copy()
                while sum(v.nbytes for v in model.values()) > MEM_BUDGET:
                    model.popitem(last=False)
        elif op == "get":
            got = cache.get(key)
            if key in model:
                assert got is not None, f"{ctx}: live entry missed"
                np.testing.assert_array_equal(got, model[key], err_msg=ctx)
                assert not got.flags.writeable, ctx
                model.move_to_end(key)
            else:
                assert got is None, f"{ctx}: evicted entry served"
        else:
            cache.clear()
            model.clear()
        _check_cache(cache, ctx)
        assert list(cache._entries) == list(model), f"{ctx}: LRU order"


@pytest.mark.parametrize("seed", SEEDS)
def test_lru_cache_invariants_under_concurrent_ops(seed):
    """Four threads drive one cache at random; the byte books close
    exactly and every served value is one some thread put for its key."""
    cache = LRUCache(max_bytes=MEM_BUDGET)
    keys = [("v1", i) for i in range(8)]
    puts: dict[tuple, list[np.ndarray]] = {k: [] for k in keys}
    puts_lock = threading.Lock()
    wrong = []
    gets = [0] * 4
    start = threading.Barrier(4)

    def work(worker: int) -> None:
        rng = np.random.default_rng([seed, worker])
        start.wait(timeout=30)
        for _ in range(N_OPS // 4):
            key = keys[int(rng.integers(len(keys)))]
            if rng.random() < 0.5:
                value = _value(rng)
                with puts_lock:
                    puts[key].append(value)
                cache.put(key, value)
            else:
                gets[worker] += 1
                got = cache.get(key)
                if got is not None:
                    with puts_lock:
                        known = list(puts[key])
                    if not any(np.array_equal(got, v) for v in known):
                        wrong.append(key)

    threads = [threading.Thread(target=work, args=(w,)) for w in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)          # interleave inside put/get
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not wrong, f"seed={seed}: served values nobody put: {wrong}"
    _check_cache(cache, f"seed={seed} after join")
    assert cache.stats.hits + cache.stats.misses == sum(gets)


POOL_BUDGET = 64 * 1024
POOL_SHAPES = [(8,), (16, 16), (32, 32), (7, 9), (64, 64)]


def _check_pool(pool: BufferPool, high_water_before: int, ctx: str) -> None:
    with pool._lock:
        free_bytes = sum(a.nbytes for bucket in pool._free.values()
                         for a in bucket)
        assert pool.stats.bytes_pooled == free_bytes, ctx
        assert pool.stats.bytes_pooled <= pool.max_bytes, \
            f"{ctx}: pool budget exceeded"
        assert pool.stats.high_water_bytes >= high_water_before, \
            f"{ctx}: high-water mark went backwards"
        assert pool.stats.high_water_bytes >= pool.stats.bytes_pooled, ctx


@pytest.mark.parametrize("seed", SEEDS)
def test_buffer_pool_invariants_under_random_ops(seed):
    rng = np.random.default_rng(seed)
    pool = BufferPool(max_bytes=POOL_BUDGET)
    leased: dict[int, np.ndarray] = {}      # id -> live buffer we hold

    for step in range(N_OPS):
        ctx = f"seed={seed} step={step}"
        high_water = pool.stats.high_water_bytes
        op = rng.choice(["acquire", "release", "zeros", "clear"],
                        p=[0.45, 0.40, 0.10, 0.05])
        if op in ("acquire", "zeros"):
            shape = POOL_SHAPES[int(rng.integers(len(POOL_SHAPES)))]
            dtype = np.float32 if rng.integers(2) else np.float64
            arr = (pool.zeros(shape, dtype) if op == "zeros"
                   else pool.acquire(shape, dtype))
            assert arr.shape == tuple(shape) and arr.dtype == dtype, ctx
            if op == "zeros":
                assert not arr.any(), ctx
            # No double-lease: the pool must never hand out memory that
            # is still leased.  Holding every leased array keeps its id
            # stable, so an id collision here is a real aliasing bug.
            assert id(arr) not in leased, f"{ctx}: double-leased buffer"
            arr.fill(step)          # dirty it: the next lessee must cope
            leased[id(arr)] = arr
        elif op == "release" and leased:
            key = list(leased)[int(rng.integers(len(leased)))]
            pool.release(leased.pop(key))
        elif op == "clear":
            pool.clear()
        _check_pool(pool, high_water, ctx)

    # Conservation: every acquire was either a recycled hit or a miss.
    assert pool.stats.hits + pool.stats.misses > 0
    assert pool.stats.bytes_recycled >= 0


@pytest.mark.parametrize("seed", SEEDS)
def test_pool_never_hands_out_released_views(seed):
    """Releasing a view must evict it, not pool aliased memory."""
    rng = np.random.default_rng(seed)
    pool = BufferPool(max_bytes=POOL_BUDGET)
    base = pool.acquire((32, 32))
    evictions = pool.stats.evictions
    pool.release(base[:16])          # a view: not poolable
    assert pool.stats.evictions == evictions + 1
    fresh = pool.acquire((16, 32))
    assert fresh.base is None
    assert not np.shares_memory(fresh, base)
