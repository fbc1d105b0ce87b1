"""Tensor fundamentals: construction, dtypes, graph mechanics."""

import numpy as np
import pytest

from repro.autograd import Tensor, no_grad, is_grad_enabled


class TestConstruction:
    def test_from_list_uses_default_dtype(self):
        t = Tensor([1.0, 2.0, 3.0])
        assert t.dtype == np.float32

    def test_ndarray_dtype_preserved(self):
        t = Tensor(np.zeros(3, dtype=np.float64))
        assert t.dtype == np.float64

    def test_numpy_scalar_dtype_preserved(self):
        # Regression: np.float64 scalars must not be demoted to float32.
        t = Tensor(np.float64(1.5))
        assert t.dtype == np.float64

    def test_integer_input_promoted_to_float(self):
        t = Tensor(np.arange(4))
        assert np.issubdtype(t.dtype, np.floating)

    def test_explicit_dtype_cast(self):
        t = Tensor(np.zeros(3, dtype=np.float64), dtype=np.float32)
        assert t.dtype == np.float32

    def test_from_tensor_shares_nothing_on_astype(self):
        a = Tensor(np.ones(3))
        b = a.astype(np.float64)
        b.data[0] = 5
        assert a.data[0] == 1.0

    def test_shape_size_ndim(self):
        t = Tensor.zeros(2, 3, 4)
        assert t.shape == (2, 3, 4)
        assert t.size == 24
        assert t.ndim == 3

    def test_constructors(self):
        assert np.all(Tensor.ones(2, 2).data == 1)
        assert np.all(Tensor.zeros(2, 2).data == 0)
        r = Tensor.randn(5, 5, rng=np.random.default_rng(0))
        assert r.shape == (5, 5)


class TestBackward:
    def test_scalar_backward(self):
        x = Tensor(np.array([2.0, 3.0]), requires_grad=True)
        y = (x * x).sum()
        y.backward()
        np.testing.assert_allclose(x.grad, [4.0, 6.0])

    def test_nonscalar_requires_grad_arg(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = x * 2.0
        with pytest.raises(RuntimeError):
            y.backward()

    def test_backward_on_leaf_raises_without_flag(self):
        x = Tensor(np.ones(3))
        with pytest.raises(RuntimeError):
            x.backward()

    def test_grad_accumulates_across_backwards(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        (x * 2.0).backward(np.array([1.0]))
        (x * 3.0).backward(np.array([1.0]))
        np.testing.assert_allclose(x.grad, [5.0])

    def test_seed_with_too_few_axes_is_rejected_up_front(self):
        """A (3,) seed on a (2, 3) output used to die inside
        ``unbroadcast`` ("cannot reshape array of size 3")."""
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        with pytest.raises(ValueError, match=r"grad shape \(3,\) != tensor "
                                             r"shape \(2, 3\)"):
            (x * 2.0).backward(np.ones(3))
        assert x.grad is None

    def test_seed_with_extra_axes_is_rejected_not_summed(self):
        """A (4, 2, 3) seed on a (2, 3) output used to be summed over its
        leading axis without a word."""
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        with pytest.raises(ValueError, match=r"grad shape \(4, 2, 3\) != "
                                             r"tensor shape \(2, 3\)"):
            (x * 2.0).backward(np.ones((4, 2, 3)))
        assert x.grad is None

    def test_diamond_graph_accumulation(self):
        # x feeds two paths that rejoin: grad must be summed once each.
        x = Tensor(np.array([3.0]), requires_grad=True)
        a = x * 2.0
        b = x * 5.0
        y = (a + b).sum()
        y.backward()
        np.testing.assert_allclose(x.grad, [7.0])

    def test_reused_node_in_graph(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        a = x * x      # a = x^2
        y = (a * a).sum()  # y = x^4 -> dy/dx = 4 x^3 = 32
        y.backward()
        np.testing.assert_allclose(x.grad, [32.0])

    def test_zero_grad(self):
        x = Tensor(np.ones(2), requires_grad=True)
        (x.sum()).backward()
        x.zero_grad()
        assert x.grad is None

    def test_detach_severs_graph(self):
        x = Tensor(np.ones(2), requires_grad=True)
        y = (x * 2.0).detach()
        assert not y.requires_grad
        z = (y * 3.0)
        assert not z.requires_grad


class TestNoGrad:
    def test_no_grad_context(self):
        x = Tensor(np.ones(2), requires_grad=True)
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
            y = x * 2.0
        assert is_grad_enabled()
        assert not y.requires_grad
        assert y._fn is None

    def test_no_grad_nested(self):
        with no_grad():
            with no_grad():
                assert not is_grad_enabled()
            assert not is_grad_enabled()
        assert is_grad_enabled()


class TestOperators:
    def test_radd_rsub_rmul_rdiv(self):
        x = Tensor(np.array([2.0]))
        np.testing.assert_allclose((1.0 + x).data, [3.0])
        np.testing.assert_allclose((5.0 - x).data, [3.0])
        np.testing.assert_allclose((3.0 * x).data, [6.0])
        np.testing.assert_allclose((8.0 / x).data, [4.0])

    def test_neg_pow_sqrt(self):
        x = Tensor(np.array([4.0]))
        np.testing.assert_allclose((-x).data, [-4.0])
        np.testing.assert_allclose((x ** 2).data, [16.0])
        np.testing.assert_allclose(x.sqrt().data, [2.0])

    def test_scalar_operand_matches_tensor_dtype(self):
        x = Tensor(np.ones(2, dtype=np.float64))
        y = x * 0.5
        assert y.dtype == np.float64

    def test_getitem(self):
        x = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3), requires_grad=True)
        y = x[0, 1:]
        np.testing.assert_allclose(y.data, [1.0, 2.0])
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [[0, 1, 1], [0, 0, 0]])

    def test_len_repr_item(self):
        x = Tensor(np.zeros((4, 2)))
        assert len(x) == 4
        assert "shape=(4, 2)" in repr(x)
        assert Tensor(np.array([3.5])).item() == pytest.approx(3.5)
