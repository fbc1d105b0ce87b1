"""Module system: registration, traversal, state dicts, modes."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.nn import Module, Parameter, ModuleList, ConvNd, BatchNorm


class _Toy(Module):
    def __init__(self):
        super().__init__()
        self.w = Parameter(np.ones(3, dtype=np.float32))
        self.child = ModuleList([ConvNd(2, 1, 2, kernel_size=3, rng=0)])
        self.register_buffer("counter", np.zeros(1, dtype=np.float32))

    def forward(self, x):
        return x


class TestRegistration:
    def test_parameters_collected_depth_first(self):
        m = _Toy()
        names = [n for n, _ in m.named_parameters()]
        assert names[0] == "w"
        assert any(n.startswith("child.0.") for n in names)

    def test_num_parameters(self):
        m = _Toy()
        conv = m.child[0]
        expected = 3 + conv.weight.size + conv.bias.size
        assert m.num_parameters() == expected

    def test_reassignment_replaces(self):
        m = _Toy()
        m.w = Parameter(np.zeros(5, dtype=np.float32))
        assert dict(m.named_parameters())["w"].size == 5

    def test_non_module_attr_not_registered(self):
        m = _Toy()
        m.some_config = 42
        assert "some_config" not in dict(m.named_parameters())

    def test_buffers(self):
        m = _Toy()
        names = [n for n, _ in m.named_buffers()]
        assert "counter" in names

    def test_update_buffer_unknown_raises(self):
        m = _Toy()
        with pytest.raises(KeyError):
            m.update_buffer("nope", np.zeros(1))

    def test_modules_iteration(self):
        m = _Toy()
        mods = list(m.modules())
        assert m in mods
        assert any(isinstance(x, ConvNd) for x in mods)


class TestModes:
    def test_train_eval_propagates(self):
        m = _Toy()
        assert m.training
        m.eval()
        assert not m.training
        assert not m.child.training
        m.train()
        assert m.child[0].training

    @pytest.mark.parametrize("was_training", [True, False])
    def test_evaluating_restores_the_previous_mode(self, was_training):
        m = _Toy().train(was_training)
        with m.evaluating() as inside:
            assert inside is m
            assert not m.training and not m.child[0].training
        assert m.training is was_training
        assert m.child[0].training is was_training

    def test_evaluating_restores_the_mode_when_the_body_raises(self):
        m = _Toy()
        with pytest.raises(RuntimeError, match="forward failed"):
            with m.evaluating():
                raise RuntimeError("forward failed")
        assert m.training and m.child[0].training


class TestStateDict:
    def test_roundtrip(self):
        m1, m2 = _Toy(), _Toy()
        # Perturb m1 and transfer to m2.
        for p in m1.parameters():
            p.data += 1.0
        m2.load_state_dict(m1.state_dict())
        for (n1, p1), (n2, p2) in zip(m1.named_parameters(), m2.named_parameters()):
            np.testing.assert_array_equal(p1.data, p2.data)

    def test_state_dict_is_a_copy(self):
        m = _Toy()
        state = m.state_dict()
        state["w"] += 99
        assert m.w.data[0] == 1.0

    def test_missing_key_strict_raises(self):
        m = _Toy()
        state = m.state_dict()
        del state["w"]
        with pytest.raises(KeyError):
            m.load_state_dict(state)

    def test_shape_mismatch_raises(self):
        m = _Toy()
        state = m.state_dict()
        state["w"] = np.zeros(7, dtype=np.float32)
        with pytest.raises(ValueError):
            m.load_state_dict(state)

    def test_buffers_roundtrip(self):
        m1, m2 = _Toy(), _Toy()
        m1.update_buffer("counter", np.array([5.0], dtype=np.float32))
        m2.load_state_dict(m1.state_dict())
        assert m2.counter[0] == 5.0

    def test_batchnorm_running_stats_roundtrip(self):
        bn1, bn2 = BatchNorm(2), BatchNorm(2)
        x = Tensor(np.random.default_rng(0).standard_normal((4, 2, 3, 3)).astype(np.float32))
        bn1(x)
        bn2.load_state_dict(bn1.state_dict())
        np.testing.assert_allclose(bn1.running_mean, bn2.running_mean)
        np.testing.assert_allclose(bn1.running_var, bn2.running_var)


class TestContainers:
    def test_modulelist_set_get(self):
        from repro.nn import LeakyReLU, Sigmoid

        ml = ModuleList([LeakyReLU(), LeakyReLU()])
        ml[1] = Sigmoid()
        assert isinstance(ml[1], Sigmoid)
        assert len(list(iter(ml))) == len(ml) == 2

    def test_modulelist_forward_raises(self):
        ml = ModuleList([])
        with pytest.raises(RuntimeError):
            ml()

    def test_modulelist_index_error(self):
        from repro.nn import LeakyReLU

        ml = ModuleList([LeakyReLU()])
        with pytest.raises(IndexError):
            ml[3]
