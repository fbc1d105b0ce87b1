"""Paper-preset tests: the documented configurations match the paper text."""

import numpy as np
import pytest

from repro.core.presets import (PAPER_CPU_SCALING, PAPER_GPU_SCALING,
                                paper_unet)


class TestPaperUNet:
    def test_architecture_matches_sec41(self):
        model = paper_unet(ndim=2, rng=0)
        net = model.net
        assert net.depth == 3                      # 'depth of 3'
        assert net.base_filters == 16              # 'starting filter size is 16'
        # 'double the number of filters as the depth increases'
        assert [b.conv.out_channels for b in net.enc_blocks] == [16, 32, 64]
        assert net.negative_slope == 0.01          # LeakyReLU layers
        from repro.nn import Sigmoid

        assert isinstance(net.final_act, Sigmoid)  # 'final layer has Sigmoid'

    def test_3d_variant_constructs_and_runs(self):
        model = paper_unet(ndim=3, rng=0)
        u = model.predict.__self__  # sanity: bound method exists
        from repro import PoissonProblem3D

        problem = PoissonProblem3D(8)
        assert model.predict(problem, np.zeros(4)).shape == (8, 8, 8)

    def test_parameter_count_scale(self):
        """The 3D paper net is a ~1M-parameter model (sanity bound)."""
        model = paper_unet(ndim=3, rng=0)
        assert 3e5 < model.num_weights < 3e6


class TestPaperConfigs:
    def test_gpu_scaling_setup(self):
        s = PAPER_GPU_SCALING
        assert s.resolution == 256
        assert s.n_samples == 1024
        assert s.local_batch == 2
        assert s.lr == pytest.approx(1e-4)
        assert s.max_workers == 512
        assert s.devices_per_node == 8
        # 64 nodes x 8 GPUs (the Fig. 9 bar labels).
        assert s.max_workers // s.devices_per_node == 64

    def test_cpu_scaling_setup(self):
        s = PAPER_CPU_SCALING
        assert s.resolution == 512
        assert s.max_workers == 128
        assert s.devices_per_node == 1  # '1 process per node'
