"""Layer behaviour: conv wrappers, batchnorm module, activations, pooling."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.nn import (ConvNd, ConvTransposeNd, BatchNorm, LeakyReLU, Sigmoid,
                      MaxPool, init)


@pytest.fixture
def rng():
    return np.random.default_rng(5)


class TestConvLayers:
    def test_conv2d_shape(self, rng):
        layer = ConvNd(2, 1, 4, kernel_size=3, padding=1, rng=rng)
        x = Tensor(rng.standard_normal((2, 1, 8, 8)).astype(np.float32))
        assert layer(x).shape == (2, 4, 8, 8)

    def test_conv3d_stride(self, rng):
        layer = ConvNd(3, 2, 3, kernel_size=2, stride=2, rng=rng)
        x = Tensor(rng.standard_normal((1, 2, 8, 8, 8)).astype(np.float32))
        assert layer(x).shape == (1, 3, 4, 4, 4)

    def test_wrong_rank_raises(self, rng):
        layer = ConvNd(2, 1, 1, rng=rng)
        with pytest.raises(ValueError):
            layer(Tensor(np.zeros((1, 1, 4, 4, 4), dtype=np.float32)))

    def test_no_bias(self, rng):
        layer = ConvNd(2, 1, 2, bias=False, rng=rng)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_transpose2d_upsamples(self, rng):
        layer = ConvTransposeNd(2, 4, 2, kernel_size=2, stride=2, rng=rng)
        x = Tensor(rng.standard_normal((1, 4, 5, 5)).astype(np.float32))
        assert layer(x).shape == (1, 2, 10, 10)

    def test_transpose3d_upsamples(self, rng):
        layer = ConvTransposeNd(3, 2, 1, kernel_size=2, stride=2, rng=rng)
        x = Tensor(rng.standard_normal((1, 2, 4, 4, 4)).astype(np.float32))
        assert layer(x).shape == (1, 1, 8, 8, 8)

    def test_transpose_wrong_rank_raises(self, rng):
        layer = ConvTransposeNd(2, 1, 1, rng=rng)
        with pytest.raises(ValueError):
            layer(Tensor(np.zeros((1, 1, 4), dtype=np.float32)))

    def test_deterministic_init_by_seed(self):
        l1 = ConvNd(2, 2, 3, rng=99)
        l2 = ConvNd(2, 2, 3, rng=99)
        np.testing.assert_array_equal(l1.weight.data, l2.weight.data)


class TestBatchNormModule:
    def test_running_stats_update(self, rng):
        bn = BatchNorm(2)
        x = Tensor((rng.standard_normal((8, 2, 4, 4)) * 3 + 1).astype(np.float32))
        bn(x)
        assert not np.allclose(bn.running_mean, 0.0)
        assert int(bn.num_batches_tracked) == 1

    def test_eval_mode_uses_running_stats(self, rng):
        bn = BatchNorm(2)
        x = Tensor(rng.standard_normal((16, 2, 5, 5)).astype(np.float32))
        # At momentum 0.1, 200 updates on one batch leave 0.9**200 < 1e-9
        # of the initial estimate: the running stats are the batch stats
        # (up to the biased/unbiased variance correction), so the
        # outputs nearly agree.
        for _ in range(200):
            y_train = bn(x).data
        bn.eval()
        y_eval = bn(x).data
        np.testing.assert_allclose(y_train, y_eval, atol=1e-2)

    def test_channel_mismatch_raises(self, rng):
        bn = BatchNorm(3)
        with pytest.raises(ValueError):
            bn(Tensor(np.zeros((1, 2, 4, 4), dtype=np.float32)))


class TestActivationsPooling:
    def test_leaky_relu_layer(self):
        act = LeakyReLU(0.2)
        x = Tensor(np.array([-1.0, 1.0]))
        np.testing.assert_allclose(act(x).data, [-0.2, 1.0])

    def test_sigmoid_range(self, rng):
        act = Sigmoid()
        y = act(Tensor(rng.standard_normal(100).astype(np.float32))).data
        assert np.all((y > 0) & (y < 1))

    def test_maxpool_layer(self, rng):
        x = Tensor(rng.standard_normal((1, 1, 4, 4)).astype(np.float32))
        assert MaxPool(2)(x).shape == (1, 1, 2, 2)


class TestInit:
    def test_fan_conv(self):
        assert init.calculate_fan((8, 4, 3, 3)) == 4 * 9
        assert init.calculate_fan((8, 4)) == 4

    def test_fan_requires_2d(self):
        with pytest.raises(ValueError):
            init.calculate_fan((5,))

    def test_kaiming_normal_std(self, rng):
        w = init.kaiming_normal((256, 128, 3, 3), rng)
        expected = np.sqrt(2.0 / (128 * 9))
        assert w.std() == pytest.approx(expected, rel=0.05)

    def test_zeros(self):
        assert np.all(init.zeros((3, 3)) == 0)
