"""LRU result cache: hit/eviction semantics and key quantization."""

import inspect
import sys
import threading

import numpy as np
import pytest

from repro.serve import LRUCache, quantize_omega, result_key


def _field(value: float, n: int = 8) -> np.ndarray:
    return np.full((n, n), value, dtype=np.float32)


class TestQuantization:
    def test_nearby_omegas_share_a_key(self):
        a = quantize_omega(np.array([0.1, -0.2, 0.3, 0.4]))
        b = quantize_omega(np.array([0.1 + 4e-7, -0.2, 0.3, 0.4]))
        assert a == b

    def test_distant_omegas_differ(self):
        a = quantize_omega(np.array([0.1, 0.2, 0.3, 0.4]))
        b = quantize_omega(np.array([0.1 + 1e-3, 0.2, 0.3, 0.4]))
        assert a != b

    def test_negative_zero_collapses(self):
        assert quantize_omega(np.array([-1e-9])) == quantize_omega(
            np.array([1e-9]))

    def test_result_key_separates_versions_and_resolutions(self):
        sig = (2, 16, (1.0, 2.0), (-3.0, 3.0))
        w = np.zeros(4)
        assert result_key("v1", sig, w, 16) != result_key("v2", sig, w, 16)
        assert result_key("v1", sig, w, 16) != result_key("v1", sig, w, 32)


class TestLRU:
    def test_hit_returns_stored_field(self):
        cache = LRUCache(max_bytes=1 << 20)
        cache.put(("k",), _field(1.0))
        got = cache.get(("k",))
        np.testing.assert_array_equal(got, _field(1.0))
        assert cache.stats.hits == 1 and cache.stats.misses == 0

    def test_miss_recorded(self):
        cache = LRUCache(max_bytes=1 << 20)
        assert cache.get(("absent",)) is None
        assert cache.stats.misses == 1

    def test_byte_bound_evicts_lru(self):
        one = _field(0.0).nbytes
        cache = LRUCache(max_bytes=2 * one)
        cache.put(("a",), _field(1.0))
        cache.put(("b",), _field(2.0))
        cache.get(("a",))              # refresh 'a': 'b' is now LRU
        cache.put(("c",), _field(3.0))
        assert cache.get(("b",)) is None
        np.testing.assert_array_equal(cache.get(("a",)), _field(1.0))
        np.testing.assert_array_equal(cache.get(("c",)), _field(3.0))
        assert cache.stats.evictions == 1
        assert cache.stats.bytes_cached <= cache.max_bytes

    def test_oversized_entry_not_admitted(self):
        cache = LRUCache(max_bytes=8)
        cache.put(("big",), _field(1.0))
        assert len(cache) == 0

    def test_oversized_entry_evicts_nothing(self):
        # Admitting it would wipe the hot set just to be evicted next.
        one = _field(0.0).nbytes
        cache = LRUCache(max_bytes=2 * one)
        cache.put(("a",), _field(1.0))
        cache.put(("b",), _field(2.0))
        assert cache.put(("big",), _field(3.0, n=16)) is None
        assert ("a",) in cache and ("b",) in cache
        assert cache.stats.evictions == 0
        assert cache.stats.bytes_cached == 2 * one

    def test_replacement_updates_bytes(self):
        cache = LRUCache(max_bytes=1 << 20)
        cache.put(("k",), _field(1.0))
        cache.put(("k",), _field(2.0))
        assert len(cache) == 1
        assert cache.stats.bytes_cached == _field(2.0).nbytes
        np.testing.assert_array_equal(cache.get(("k",)), _field(2.0))

    def test_stored_fields_are_immutable(self):
        cache = LRUCache(max_bytes=1 << 20)
        cache.put(("k",), _field(1.0))
        got = cache.get(("k",))
        with pytest.raises(ValueError):
            got[0, 0] = 99.0

    def test_put_copies_input(self):
        cache = LRUCache(max_bytes=1 << 20)
        src = _field(1.0)
        cache.put(("k",), src)
        src[:] = -1.0
        np.testing.assert_array_equal(cache.get(("k",)), _field(1.0))


class TestConcurrentMemoryTier:
    """The memory tier is the whole cache: its one lock keeps the byte
    books exact under concurrent writers."""

    def test_four_threads_share_one_byte_budget(self):
        one = _field(0.0).nbytes
        cache = LRUCache(max_bytes=5 * one)
        served = []
        start = threading.Barrier(4)

        def work(t):
            start.wait(timeout=30)
            for i in range(40):
                cache.put((t, i), _field(100 * t + i))
                got = cache.get((t, i // 2))
                served.append(got is None
                              or np.array_equal(got, _field(100 * t + i // 2)))

        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)      # interleave inside put/get
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert all(served)
        assert len(cache) == 5
        assert cache.stats.bytes_cached == 5 * one <= cache.max_bytes
        # 160 distinct admissions into a 5-entry budget: all but five go.
        assert cache.stats.evictions == 160 - 5
        assert cache.stats.hits + cache.stats.misses == 160

    def test_racing_puts_of_one_key_count_its_bytes_once(self):
        cache = LRUCache(max_bytes=1 << 20)
        start = threading.Barrier(8)

        def put(v):
            start.wait(timeout=30)
            for _ in range(200):
                cache.put(("k",), _field(v))

        threads = [threading.Thread(target=put, args=(float(v),))
                   for v in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)      # interleave inside put
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert len(cache) == 1
        assert cache.stats.bytes_cached == _field(0.0).nbytes
        assert cache.stats.evictions == 0
        assert cache.get(("k",))[0, 0] in {float(v) for v in range(8)}


def test_cache_takes_only_a_byte_budget():
    # No disk tier (spill_dir, spill_max_bytes) and nothing else: a byte
    # budget is the cache's one setting.
    assert list(inspect.signature(LRUCache).parameters) == ["max_bytes"]
