"""Lazy op-graph backend: equivalence, fusion, interop, the interpreter.

The lazy backend must be *invisible* numerically: every computation gives
the same answer as eager NumPy (bitwise where the op order is unchanged,
<= 1e-6 always).  Pinned here:

* **Equivalence** — elementwise/reduce chains, autograd training steps,
  gradcheck, the GMG V-cycle and tiled inference all match eager.
* **Fusion** — the damped-Jacobi update chain collapses into a single
  cluster.
* **Interop** — LazyArray mixes with raw ndarrays through the ufunc
  protocol (``ndarray += lazy``, ``np.matmul``), and mutation is a
  barrier.
* **The interpreter** — it runs every cluster, and it streams a chain
  through scratch it owns, never through a leaf.
"""

import numpy as np
import pytest

from repro.backend import (
    is_lazy, lazy_stats, realize, reset_lazy_stats, set_backend, use_backend,
)


@pytest.fixture(autouse=True)
def _eager_after():
    yield
    set_backend("numpy")


def _chain(x, omega, inv_d, r, interior):
    return x + omega * inv_d * r * interior


class TestEquivalence:
    def test_elementwise_chain_bitwise(self):
        rng = np.random.default_rng(0)
        x, r = rng.standard_normal(512), rng.standard_normal(512)
        inv_d = rng.uniform(0.5, 2.0, 512)
        mask = (np.arange(512) % 3 != 0).astype(np.float64)
        eager = _chain(x, 2 / 3, inv_d, r, mask)
        with use_backend("lazy"):
            from repro.backend import ops as B
            lazy = realize(_chain(B.asarray(x), 2 / 3, B.asarray(inv_d) * 1.0,
                                  B.asarray(r), B.asarray(mask)))
        np.testing.assert_array_equal(eager, np.asarray(lazy))

    def test_reduce_chain(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((64, 64))
        eager = np.exp(-np.abs(a)).sum()
        with use_backend("lazy"):
            from repro.backend import ops as B
            lazy = float(B.exp(-B.abs(B.asarray(a))).sum())
        assert abs(eager - lazy) <= 1e-9 * abs(eager)

    def test_integer_sum_promotes_like_eager(self):
        # Regression: the recorded sum dtype once mirrored the input
        # dtype, so an int8 sum was computed promoted and then astyped
        # back down — silent overflow (500 -> -12).
        with use_backend("lazy"):
            from repro.backend import ops as B
            for dt in (np.int8, np.int16, np.uint8, np.bool_):
                vals = np.array([100, 100, 100, 100, 100]).astype(dt)
                eager = vals.sum()
                lazy = np.asarray(realize(B.asarray(vals).sum()))
                assert lazy.dtype == eager.dtype
                assert lazy == eager
            f32 = np.ones(7, dtype=np.float32)
            assert np.asarray(
                realize(B.asarray(f32).sum())).dtype == np.float32

    def test_reduce_axis_empty_tuple_is_identity(self):
        # Regression: axis=() was collapsed to a full reduction by an
        # `axis or None`; eager NumPy treats it as the identity.
        a = np.arange(12, dtype=np.float64).reshape(3, 4)
        with use_backend("lazy"):
            from repro.backend import ops as B
            out = np.asarray(realize(B.asarray(a).sum(axis=())))
        np.testing.assert_array_equal(out, np.sum(a, axis=()))

    def test_reduce_max_min_propagate_nan(self):
        # Regression: a fused max/min once skipped NaN ('v > acc').
        n = 1 << 14
        rng = np.random.default_rng(3)
        base = rng.standard_normal(n)
        base[n // 2] = np.nan
        with use_backend("lazy"):
            from repro.backend import ops as B
            hi = np.asarray(realize(B.abs(B.asarray(base)).max()))
            lo = np.asarray(realize(B.abs(B.asarray(base)).min()))
        assert np.isnan(hi) and np.isnan(lo)

    def test_autograd_training_step(self):
        from repro.autograd import Tensor, sigmoid

        def step():
            rng = np.random.default_rng(7)
            x = Tensor(rng.standard_normal((16, 8)), requires_grad=True)
            w = Tensor(rng.standard_normal((8,)), requires_grad=True)
            y = sigmoid((x * w).sum(axis=1))
            loss = (y * y).mean()
            loss.backward()
            return loss.numpy(), x.grad.copy(), w.grad.copy()

        set_backend("numpy")
        le, xe, we = step()
        set_backend("lazy")
        ll, xl, wl = step()
        np.testing.assert_array_equal(le, ll)
        np.testing.assert_array_equal(xe, np.asarray(xl))
        np.testing.assert_array_equal(we, np.asarray(wl))

    def test_gradcheck_under_lazy(self):
        from repro.autograd import Tensor, leaky_relu, sigmoid
        from tests.gradcheck import gradcheck

        set_backend("lazy")
        rng = np.random.default_rng(3)
        a = Tensor(rng.standard_normal((5, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((5, 4)), requires_grad=True)
        gradcheck(lambda a, b: (sigmoid(a * b) + leaky_relu(a, 0.1)).sum(),
                  (a, b))

    def test_gmg_vcycle_identical(self):
        from repro.fem import GeometricMultigrid, UniformGrid, canonical_bc

        grid = UniformGrid(2, 17)
        rng = np.random.default_rng(5)
        nu = np.exp(0.3 * rng.standard_normal(grid.shape))
        bc = canonical_bc(grid)
        f = np.ones(grid.shape)

        def solve():
            gmg = GeometricMultigrid(grid, nu, bc, coarse_size=128)
            u = gmg.solve(f, tol=1e-9)
            return np.asarray(realize(u)), gmg.last_report.iterations

        set_backend("numpy")
        ue, ite = solve()
        set_backend("lazy")
        ul, itl = solve()
        assert ite == itl
        np.testing.assert_array_equal(ue, ul)

    def test_tiled_predict_matches_eager(self):
        from repro import MGDiffNet, PoissonProblem2D
        from repro.core.inference import predict_batch
        from repro.serve.tiling import tiled_predict

        model = MGDiffNet(ndim=2, base_filters=4, depth=1, rng=2)
        problem = PoissonProblem2D(16)
        om = np.linspace(0.2, 0.8, 8).reshape(2, 4)

        set_backend("numpy")
        eager = predict_batch(model, problem, om)
        set_backend("lazy")
        lazy_full = predict_batch(model, problem, om)
        lazy_tiled = tiled_predict(model, problem, om, tile=8)
        np.testing.assert_array_equal(eager, lazy_full)
        np.testing.assert_allclose(eager, lazy_tiled, atol=1e-6)
        assert not is_lazy(lazy_full)     # serve boundary realizes


class TestFusion:
    def test_smoother_chain_fuses_to_one_cluster(self):
        set_backend("lazy")
        from repro.backend import ops as B

        rng = np.random.default_rng(0)
        n = 8192
        x = B.asarray(rng.standard_normal(n))
        r = B.asarray(rng.standard_normal(n))
        diag = B.asarray(rng.uniform(1.0, 2.0, n))
        interior = B.asarray((np.arange(n) % 5 != 0).astype(np.float64))
        reset_lazy_stats()
        inv_d = B.where(diag != 0, 1.0 / diag, 0.0)
        y = realize(x + (2.0 / 3.0) * inv_d * r * interior)
        stats = lazy_stats()
        assert stats["clusters"] == 1
        assert stats["fused_ops"] >= 4
        assert y.shape == (n,)

class TestInterop:
    def test_inplace_add_into_ndarray(self):
        set_backend("lazy")
        from repro.backend import ops as B

        out = np.zeros(64)
        lazy = B.asarray(np.ones(64)) * 2.0
        out[:32] += np.asarray(realize(lazy))[:32]
        out[32:] += 1.0
        np.testing.assert_array_equal(out[:32], 2.0)
        # The ufunc-protocol path: ndarray += LazyArray directly.
        out2 = np.zeros(64)
        out2 += lazy
        np.testing.assert_array_equal(np.asarray(out2), 2.0)

    def test_matmul_mixes_with_ndarray(self):
        set_backend("lazy")
        from repro.backend import ops as B

        a = np.eye(4)
        lazy = B.asarray(np.arange(16.0).reshape(4, 4)) + 0.0
        np.testing.assert_array_equal(np.asarray(np.matmul(a, lazy)),
                                      np.arange(16.0).reshape(4, 4))

    def test_array_protocol_copies_only_when_asked(self):
        """``np.array`` of a lazy node is a fresh (optionally cast) copy
        and ``np.asarray`` the realized buffer itself, with no NumPy 2
        ``copy=`` deprecation warning on either."""
        import warnings

        set_backend("lazy")
        from repro.backend import ops as B

        lazy = B.asarray(np.arange(4, dtype=np.float32)) * 2.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            view = np.asarray(lazy)
            copy = np.array(lazy)
            wide = np.array(lazy, dtype=np.float64)
        assert np.asarray(lazy) is view
        assert not np.shares_memory(copy, view)
        assert wide.dtype == np.float64
        np.testing.assert_array_equal(wide, [0, 2, 4, 6])

    def test_setitem_is_a_barrier(self):
        set_backend("lazy")
        from repro.backend import ops as B

        x = B.asarray(np.zeros(8)) + 1.0
        x[2:4] = 5.0
        got = np.asarray(realize(x))
        np.testing.assert_array_equal(got, [1, 1, 5, 5, 1, 1, 1, 1])


class TestInterpreter:
    def test_every_cluster_is_interpreted(self):
        set_backend("lazy")
        from repro.backend import ops as B

        base = np.random.default_rng(0).standard_normal(8192)
        a = B.asarray(base.copy())
        reset_lazy_stats()
        y = realize(B.tanh(a * 2.0) + a)
        n = realize(B.sqrt((a * a).sum()))
        stats = lazy_stats()
        # tanh(a * 2) + a; sum(a * a); sqrt of the realized sum.
        assert stats == {"clusters": 3, "fused_ops": 6}
        np.testing.assert_array_equal(np.asarray(y),
                                      np.tanh(base * 2.0) + base)
        assert float(n) == np.sqrt((base * base).sum())

    def test_leaves_are_never_scratch(self):
        """A chain writes its temporaries into buffers it allocated; the
        arrays it reads keep their values."""
        set_backend("lazy")
        from repro.backend import ops as B

        rng = np.random.default_rng(1)
        x, r = rng.standard_normal(4096), rng.standard_normal(4096)
        xs, rs = x.copy(), r.copy()
        lx, lr = B.asarray(x), B.asarray(r)
        y = np.asarray(realize((lx * 0.5 + lr) * lr - lx))
        np.testing.assert_array_equal(y, (xs * 0.5 + rs) * rs - xs)
        np.testing.assert_array_equal(x, xs)
        np.testing.assert_array_equal(r, rs)


class TestFleetStormUnderLazy:
    def test_storm_conserves_and_matches_eager(self, monkeypatch):
        import threading

        from repro import MGDiffNet, PoissonProblem2D
        from repro.core.inference import predict_batch
        from repro.serve import FleetConfig, ServerConfig, ShardedFleet

        model = MGDiffNet(ndim=2, base_filters=4, depth=1, rng=1)
        problem = PoissonProblem2D(16)
        # The process-wide backend: every thread that never picked one
        # (the clients, and the tile pools they create) runs lazy.
        monkeypatch.setenv("REPRO_BACKEND", "lazy")
        reset_lazy_stats()
        fleet = ShardedFleet(FleetConfig(
            shards=2, replicas=2,
            server=ServerConfig(max_batch=4, max_wait_ms=0.5, workers=1,
                                cache_bytes=0, executor="thread")))
        try:
            fleet.register_model("m", model, problem)
            futures, lock = [], threading.Lock()

            def client(cid):
                rng = np.random.default_rng(100 + cid)
                for _ in range(8):
                    om = rng.uniform(-3, 3, 4)
                    f = fleet.submit("m", om, priority=int(rng.integers(4)))
                    with lock:
                        futures.append((om, f))

            threads = [threading.Thread(target=client, args=(c,))
                       for c in range(3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            for om, f in futures:
                got = f.result(timeout=60)
                assert not is_lazy(got)
                want = predict_batch(model, problem, om)[0]
                np.testing.assert_allclose(got, want, atol=1e-6)
            stats = fleet.stats
            assert stats.lost == 0
            assert stats.served == len(futures)
            assert lazy_stats()["clusters"] > 0   # the forwards ran lazy
        finally:
            fleet.close()
