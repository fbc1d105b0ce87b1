"""Randomized-op invariant tests for the serving cache and buffer pool.

Unit tests pin single behaviors; these machines drive :class:`LRUCache`
(the byte-bounded memory LRU) and :class:`BufferPool` (one scratch arena
per thread) through ~1k random operations per seed and re-check the
structural invariants after *every* op — the byte bounds, accounting
identities and aliasing rules the concurrent server and the conv engine
lean on.  Failures print the seed and op index,
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
        op = rng.choice(["put", "get"])
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
        else:
            got = cache.get(key)
            if key in model:
                assert got is not None, f"{ctx}: live entry missed"
                np.testing.assert_array_equal(got, model[key], err_msg=ctx)
                assert not got.flags.writeable, ctx
                model.move_to_end(key)
            else:
                assert got is None, f"{ctx}: evicted entry served"
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
MAX_ARENA = 40_000       # rounded up to 40 KiB: a few parked ones pass the budget


def _check_pool(pool: BufferPool, high_water_before: int, ctx: str) -> int:
    """The byte books of the parked arenas; returns the high-water mark
    read, for the next check's monotonicity."""
    with pool._lock:
        parked = [arena for arena, in pool._parked.values()
                  if arena is not None]
        pooled = pool.stats.bytes_pooled
        high_water = pool.stats.high_water_bytes
    assert pooled == sum(a.nbytes for a in parked), ctx
    assert pooled <= pool.max_bytes, f"{ctx}: pool budget exceeded"
    assert high_water >= high_water_before, \
        f"{ctx}: high-water mark went backwards"
    assert high_water >= pooled, ctx
    return high_water


def _overlaps(arena: np.ndarray, others) -> bool:
    return any(np.shares_memory(arena, other) for other in others)


@pytest.mark.parametrize("seed", SEEDS)
def test_buffer_pool_invariants_under_random_ops(seed):
    """Random nested ``arena`` calls and ``clear`` on one thread: no two
    live arenas overlap, none is written by another call, and the books
    close after every op."""
    rng = np.random.default_rng(seed)
    pool = BufferPool(max_bytes=POOL_BUDGET)
    held: list[tuple[object, int, np.ndarray]] = []   # innermost last
    high_water = opens = 0

    for step in range(N_OPS):
        ctx = f"seed={seed} step={step}"
        op = rng.choice(["open", "close", "clear"], p=[0.5, 0.45, 0.05])
        if op == "open" and len(held) < 6:
            nbytes = int(rng.integers(1, MAX_ARENA))
            scope = pool.arena(nbytes)
            arena = scope.__enter__()
            opens += 1
            assert arena.shape == (nbytes,) and arena.dtype == np.uint8, ctx
            assert not _overlaps(arena, [a for _, _, a in held]), \
                f"{ctx}: two live arenas overlap"
            tag = step % 255 + 1
            arena.fill(tag)
            held.append((scope, tag, arena))
        elif op == "close" and held:
            scope, tag, arena = held.pop()
            assert (arena == tag).all(), f"{ctx}: a live arena was written"
            scope.__exit__(None, None, None)
        elif op == "clear":
            pool.clear()
        high_water = _check_pool(pool, high_water, ctx)

    while held:
        held.pop()[0].__exit__(None, None, None)
    _check_pool(pool, high_water, f"seed={seed} end")
    assert pool.stats.hits + pool.stats.misses == opens


@pytest.mark.parametrize("seed", SEEDS)
def test_buffer_pool_invariants_under_concurrent_ops(seed):
    """Four threads open nested arenas at random and one in thirty ops
    clears the pool: no live arena overlaps another thread's or is
    written by it, the books close at every check, and once the threads
    have ended no arena is left in the count."""
    pool = BufferPool(max_bytes=POOL_BUDGET)
    live: dict[int, np.ndarray] = {}
    live_lock = threading.Lock()
    errors: list[str] = []
    opens = [0] * 4
    start = threading.Barrier(4)

    def work(worker: int) -> None:
        rng = np.random.default_rng([seed, worker])
        held, high_water = [], 0
        start.wait(timeout=30)
        for step in range(N_OPS // 4):
            ctx = f"seed={seed} worker={worker} step={step}"
            op = rng.choice(["open", "close", "clear"], p=[0.5, 0.47, 0.03])
            if op == "open" and len(held) < 4:
                scope = pool.arena(int(rng.integers(1, MAX_ARENA // 2)))
                arena = scope.__enter__()
                opens[worker] += 1
                arena.fill(worker + 1)
                with live_lock:
                    if _overlaps(arena, live.values()):
                        errors.append(f"{ctx}: two live arenas overlap")
                    live[id(scope)] = arena
                held.append(scope)
            elif op == "close" and held:
                scope = held.pop()
                with live_lock:
                    arena = live.pop(id(scope))
                if not (arena == worker + 1).all():
                    errors.append(f"{ctx}: a live arena was written")
                scope.__exit__(None, None, None)
            elif op == "clear":
                pool.clear()
            try:
                high_water = _check_pool(pool, high_water, ctx)
            except AssertionError as exc:
                errors.append(str(exc))
        while held:
            with live_lock:
                live.pop(id(held[-1]))
            held.pop().__exit__(None, None, None)

    threads = [threading.Thread(target=work, args=(w,)) for w in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)          # interleave inside arena/park
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors[:5]
    _check_pool(pool, 0, f"seed={seed} after join")
    assert pool.stats.bytes_pooled == 0
    assert pool.stats.hits + pool.stats.misses == sum(opens)
