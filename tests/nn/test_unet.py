"""U-Net architecture tests: shape algebra, resolution agnosticism,
architectural adaptation (paper Sec. 3.1.2, 4.1.2)."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.nn import UNet


@pytest.fixture
def rng():
    return np.random.default_rng(1)


def _x(rng, shape):
    return Tensor(rng.standard_normal(shape).astype(np.float32))


class TestShapes:
    @pytest.mark.parametrize("ndim,spatial", [(2, (16, 16)), (3, (8, 8, 8))])
    def test_output_matches_input_resolution(self, rng, ndim, spatial):
        net = UNet(ndim=ndim, base_filters=4, depth=2, rng=0)
        x = _x(rng, (2, 1) + spatial)
        assert net(x).shape == (2, 1) + spatial

    def test_resolution_agnostic(self, rng):
        """Property 1 of Sec. 3.1.2: one network, many resolutions."""
        net = UNet(ndim=2, base_filters=4, depth=2, rng=0)
        for r in (8, 16, 32):
            assert net(_x(rng, (1, 1, r, r))).shape == (1, 1, r, r)

    def test_indivisible_resolution_raises(self, rng):
        net = UNet(ndim=2, base_filters=4, depth=3, rng=0)
        with pytest.raises(ValueError):
            net(_x(rng, (1, 1, 12, 12)))

    def test_wrong_rank_raises(self, rng):
        net = UNet(ndim=3, base_filters=4, depth=1, rng=0)
        with pytest.raises(ValueError):
            net(_x(rng, (1, 1, 8, 8)))

    def test_min_resolution(self):
        assert UNet(ndim=2, depth=3, rng=0).min_resolution == 8

    def test_invalid_config_raises(self):
        with pytest.raises(ValueError):
            UNet(ndim=4, rng=0)
        with pytest.raises(ValueError):
            UNet(ndim=2, depth=0, rng=0)


class TestBehaviour:
    def test_sigmoid_output_range(self, rng):
        net = UNet(ndim=2, base_filters=4, depth=1, rng=0)
        y = net(_x(rng, (2, 1, 8, 8))).data
        assert np.all((y >= 0) & (y <= 1))

    def test_no_batchnorm_variant(self, rng):
        net = UNet(ndim=2, base_filters=4, depth=2, use_batchnorm=False, rng=0)
        assert net(_x(rng, (1, 1, 8, 8))).shape == (1, 1, 8, 8)
        assert not any("bn" in n for n, _ in net.named_parameters())

    def test_gradients_reach_all_parameters(self, rng):
        net = UNet(ndim=2, base_filters=4, depth=2, rng=0)
        d = net(_x(rng, (2, 1, 8, 8))) - 0.5
        (d * d).mean().backward()
        missing = [n for n, p in net.named_parameters() if p.grad is None]
        assert not missing, f"no grad for {missing}"

    def test_filter_doubling(self):
        net = UNet(ndim=2, base_filters=8, depth=3, rng=0)
        assert net.enc_blocks[0].conv.out_channels == 8
        assert net.enc_blocks[1].conv.out_channels == 16
        assert net.enc_blocks[2].conv.out_channels == 32
        assert net.bottleneck.conv.out_channels == 64


class TestAdaptation:
    def test_adds_parameters(self, rng):
        net = UNet(ndim=2, base_filters=4, depth=2, rng=0)
        n0 = net.num_parameters()
        net.adapt_decoder(rng=1)
        assert net.num_parameters() > n0
        assert net.num_adaptations == 1

    def test_swaps_last_upconv(self, rng):
        net = UNet(ndim=2, base_filters=4, depth=2, rng=0)
        old = net.ups[len(net.ups) - 1].upconv
        net.adapt_decoder(rng=1)
        assert net.ups[len(net.ups) - 1].upconv is not old

    def test_forward_still_resolution_preserving(self, rng):
        net = UNet(ndim=3, base_filters=4, depth=1, rng=0)
        net.adapt_decoder(rng=1)
        net.adapt_decoder(rng=2)
        assert net(_x(rng, (1, 1, 8, 8, 8))).shape == (1, 1, 8, 8, 8)

    def test_adaptation_layer_counts(self, rng):
        """+2 transpose convs (1 fresh swap + 1 refinement), +1 conv."""
        from repro.nn import ConvTransposeNd, ConvNd

        net = UNet(ndim=2, base_filters=4, depth=2, rng=0)
        def count(cls):
            return sum(isinstance(m, cls) for m in net.modules())
        tc0, c0 = count(ConvTransposeNd), count(ConvNd)
        net.adapt_decoder(rng=1)
        assert count(ConvTransposeNd) == tc0 + 1   # refinement tconv (swap replaces one)
        assert count(ConvNd) == c0 + 1             # refinement conv block

    def test_trained_encoder_preserved(self, rng):
        net = UNet(ndim=2, base_filters=4, depth=2, rng=0)
        enc_w = net.enc_blocks[0].conv.weight.data.copy()
        net.adapt_decoder(rng=1)
        np.testing.assert_array_equal(net.enc_blocks[0].conv.weight.data, enc_w)
