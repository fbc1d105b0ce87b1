"""The paper's exact experimental configurations, as code.

These presets document (and make runnable at full scale, given the
hardware) the hyperparameters reported in Sec. 4:

* U-Net: depth 3, base filters 16 doubling with depth, LeakyReLU inner
  activations, Sigmoid head (Sec. 4.1).
* GPU scaling study: 1024 samples at 256^3, local batch 2, Adam lr 1e-4
  (Sec. 4.2.1).
* CPU scaling study: 512^3 on Bridges2, 1 process/node, local batch 2
  (Sec. 4.2.2).

The downscaled defaults used elsewhere in this repository trade the
paper's week-scale budgets for minute-scale ones; these functions are the
ground truth for what the paper actually ran.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mgdiffnet import MGDiffNet

__all__ = ["PaperScalingSetup", "paper_unet", "PAPER_GPU_SCALING",
           "PAPER_CPU_SCALING"]


def paper_unet(ndim: int, rng: np.random.Generator | int | None = None
               ) -> MGDiffNet:
    """The Sec. 4.1 architecture: depth 3, 16 base filters, LeakyReLU,
    Sigmoid output, batch-norm blocks."""
    return MGDiffNet(ndim=ndim, base_filters=16, depth=3,
                     negative_slope=0.01, use_batchnorm=True, rng=rng)


@dataclass(frozen=True)
class PaperScalingSetup:
    """One strong-scaling experiment of Sec. 4.2."""

    resolution: int
    n_samples: int
    local_batch: int
    lr: float
    max_workers: int
    devices_per_node: int
    cluster: str


#: Fig. 9: 256^3 on Azure NDv2, 1024 maps, local batch 2 (14 GB/sample),
#: Adam lr 1e-4, up to 64 nodes x 8 V100s.
PAPER_GPU_SCALING = PaperScalingSetup(
    resolution=256, n_samples=1024, local_batch=2, lr=1e-4,
    max_workers=512, devices_per_node=8, cluster="azure_ndv2")

#: Fig. 10: 512^3 on PSC Bridges2, 1 MPI process per 128-core node,
#: local batch 2 (230 GB peak/node), up to 128 nodes.
PAPER_CPU_SCALING = PaperScalingSetup(
    resolution=512, n_samples=1024, local_batch=2, lr=1e-4,
    max_workers=128, devices_per_node=1, cluster="bridges2")
