"""Unit tests for the array-backend layer: registry round-trips, the op
dispatcher, the dtype policy and the pooled buffer allocator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import (
    ArrayBackend, BackendOpError, BufferPool, NumpyBackend,
    available_backends, dtype_scope, get_backend, get_default_dtype,
    get_pool, ops, register_backend, set_backend, set_default_dtype,
    use_backend,
)


class TestRegistry:
    def test_numpy_round_trip(self):
        backend = set_backend("numpy")
        assert backend.name == "numpy"
        assert get_backend() is backend
        assert "numpy" in available_backends()

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown backend"):
            set_backend("does-not-exist")

    def test_register_and_activate_custom(self):
        class StubBackend(NumpyBackend):
            name = "stub"

        stub = StubBackend()
        register_backend("stub", stub)
        try:
            with use_backend("stub") as active:
                assert active is stub
                assert get_backend() is stub
            assert get_backend().name == "numpy"
        finally:
            set_backend("numpy")

    def test_factory_registration_memoizes(self):
        created = []

        def factory():
            b = NumpyBackend()
            created.append(b)
            return b

        register_backend("factory-made", factory)
        try:
            with use_backend("factory-made") as first:
                pass
            with use_backend("factory-made") as second:
                pass
            assert first is second
            assert len(created) == 1
        finally:
            set_backend("numpy")


class TestOpDispatch:
    def test_dispatcher_resolves_active_backend(self):
        a = np.arange(6.0).reshape(2, 3)
        b = np.arange(12.0).reshape(3, 4)
        np.testing.assert_allclose(ops.matmul(a, b), a @ b)
        np.testing.assert_allclose(
            ops.tensordot(a, b, axes=([1], [0])), np.tensordot(a, b, axes=1))

    def test_missing_op_raises_backend_error(self):
        backend = get_backend()
        with pytest.raises(BackendOpError, match="does not implement"):
            backend.op("definitely_not_an_op")

    def test_subclass_override_is_local(self):
        class Child(NumpyBackend):
            name = "child"

        sentinel = object()
        Child.register_op("tensordot", lambda *a, **k: sentinel)
        child = Child()
        assert child.op("tensordot")(None, None) is sentinel
        # Parent table untouched.
        assert NumpyBackend().op("tensordot") is not child.op("tensordot")

    def test_attribute_access_resolves_ops(self):
        backend = get_backend()
        assert backend.exp is backend.op("exp")
        with pytest.raises(AttributeError):
            backend.nonexistent_op

    def test_scatter_add(self):
        out = np.zeros(4)
        ops.scatter_add(out, np.array([0, 0, 2]), np.array([1.0, 2.0, 5.0]))
        np.testing.assert_allclose(out, [3.0, 0.0, 5.0, 0.0])


class TestDtypePolicy:
    def test_default_is_float32(self):
        assert get_default_dtype() is np.float32

    def test_set_and_restore(self):
        set_default_dtype("float64")
        try:
            assert get_default_dtype() is np.float64
            from repro.autograd import Tensor
            assert Tensor([1.0, 2.0]).dtype == np.float64
        finally:
            set_default_dtype(np.float32)

    def test_scope_restores_on_exit(self):
        with dtype_scope(np.float64):
            assert get_default_dtype() is np.float64
            with dtype_scope("float32"):
                assert get_default_dtype() is np.float32
            assert get_default_dtype() is np.float64
        assert get_default_dtype() is np.float32

    def test_rejects_non_float(self):
        with pytest.raises(ValueError, match="float32 or float64"):
            set_default_dtype(np.int64)


class TestBufferPool:
    def test_clear_drops_buffers(self):
        pool = BufferPool()
        with pool.arena(100):
            pass
        assert pool.stats.bytes_pooled > 0
        pool.clear()
        assert pool.stats.bytes_pooled == 0
        with pool.arena(100):
            pass
        assert pool.stats.misses == 2

    def test_backend_owns_a_pool(self):
        assert isinstance(get_pool(), BufferPool)
        assert get_pool() is get_backend().pool

    def test_the_pool_is_one_arena_per_thread_and_nothing_else(self):
        pool = BufferPool()
        public = {name for name in dir(pool) if not name.startswith("_")}
        assert public == {"arena", "clear", "max_bytes", "stats"}


class TestArena:
    """One scratch arena per thread: reuse is a hit, it grows to the
    largest request, a nested request never aliases it, and it leaves
    the count when its thread ends."""

    def test_reuse_is_a_hit_and_the_arena_grows_to_the_largest_call(self):
        pool = BufferPool()
        with pool.arena(5000) as a:
            first = a.ctypes.data
            assert a.dtype == np.uint8 and a.shape == (5000,)
        with pool.arena(3000) as a:
            assert a.ctypes.data == first and a.shape == (3000,)
        assert (pool.stats.hits, pool.stats.misses) == (1, 1)
        assert pool.stats.bytes_recycled == 3000
        with pool.arena(9000):
            pass
        assert pool.stats.misses == 2
        # One arena parked, in whole pages: the 5000-byte one was dropped.
        assert pool.stats.bytes_pooled == pool.stats.high_water_bytes == 12288

    def test_a_nested_call_gets_its_own_arena_and_the_larger_is_kept(self):
        pool = BufferPool()
        with pool.arena(100) as outer:
            outer[:] = 1
            with pool.arena(20000) as inner:
                assert not np.shares_memory(inner, outer)
                inner[:] = 2
            assert (outer == 1).all()
        assert pool.stats.bytes_pooled == 20480
        with pool.arena(20000):
            assert pool.stats.hits == 1

    def test_each_thread_has_its_own_arena_which_dies_with_it(self):
        import threading

        pool = BufferPool()
        with pool.arena(4096) as mine:
            ptr = mine.ctypes.data
        seen = []

        def work():
            with pool.arena(4096) as theirs:
                seen.append(theirs.ctypes.data)
            seen.append(pool.stats.bytes_pooled)

        thread = threading.Thread(target=work)
        thread.start()
        thread.join()
        assert seen[0] != ptr and seen[1] == 2 * 4096
        assert pool.stats.bytes_pooled == 4096

    def test_threads_never_share_an_arena_and_the_count_holds(self):
        """Six threads on two cores, switching every microsecond: no
        thread sees another's bytes in its arena, every call is a hit or
        a miss, and once all have ended no arena is left in the count."""
        import sys
        import threading

        pool, calls, clobbered = BufferPool(), 300, []

        def work(tag: int) -> None:
            sizes = np.random.default_rng(tag).integers(1, 20000, calls)
            for n in sizes:
                with pool.arena(int(n)) as mine:
                    mine.fill(tag)
                    if not (mine == tag).all():
                        clobbered.append(tag)

        threads = [threading.Thread(target=work, args=(tag,))
                   for tag in range(1, 7)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not clobbered
        assert pool.stats.hits + pool.stats.misses == 6 * calls
        assert pool.stats.bytes_pooled == 0

    def test_max_bytes_caps_what_is_kept(self):
        pool = BufferPool(max_bytes=8192)
        with pool.arena(10000):
            pass
        assert pool.stats.bytes_pooled == 0 and pool.stats.evictions == 1
        with pool.arena(100):
            pass
        assert pool.stats.bytes_pooled == 4096


class TestBackendThroughStack:
    """Smoke: a training step works identically via the backend seam."""

    def test_conv_module_matches_direct_numpy(self):
        from repro.autograd import Tensor
        from repro.nn.conv import ConvNd

        rng = np.random.default_rng(0)
        layer = ConvNd(2, 3, 8, kernel_size=3, padding=1, rng=7)
        x = rng.standard_normal((2, 3, 12, 12)).astype(np.float32)
        with use_backend("numpy"):
            y = layer(Tensor(x))
        assert y.shape == (2, 8, 12, 12)
        assert np.isfinite(y.data).all()
