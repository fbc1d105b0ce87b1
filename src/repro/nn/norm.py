"""Batch normalization layer with running statistics."""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor, batch_norm
from ..autograd.ops_norm import batch_stats
from ..backend.dtype import get_default_dtype
from .module import Module, Parameter
from . import init

__all__ = ["BatchNorm"]


class BatchNorm(Module):
    """Batch normalization over (N, *spatial) per channel.

    Training mode normalizes with batch statistics and updates exponential
    running averages (weight ``momentum``); evaluation mode uses the
    running averages — matching the behaviour assumed by the paper's U-Net
    blocks.  ``eps`` and ``momentum`` are torch's defaults.
    """

    eps = 1e-5
    momentum = 0.1

    def __init__(self, num_features: int) -> None:
        super().__init__()
        self.num_features = num_features
        dtype = get_default_dtype()
        self.gamma = Parameter(np.ones(num_features, dtype=dtype))
        self.beta = Parameter(init.zeros((num_features,)))
        self.register_buffer("running_mean", np.zeros(num_features, dtype=dtype))
        self.register_buffer("running_var", np.ones(num_features, dtype=dtype))
        self.register_buffer("num_batches_tracked", np.zeros((), dtype=np.int64))

    def forward(self, x: Tensor, negative_slope: float | None = None) -> Tensor:
        """``negative_slope`` appends a LeakyReLU, fused into the op in
        training mode (what :class:`~repro.nn.unet.ConvBlock` passes)."""
        if x.shape[1] != self.num_features:
            raise ValueError(
                f"BatchNorm expected {self.num_features} channels, got {x.shape[1]}")
        if self.training:
            # One reduction feeds the running estimates and the op.
            stats = batch_stats(x.data)
            batch_mean, batch_var = stats[:2]
            m = self.momentum
            stat_dtype = np.asarray(self.running_mean).dtype
            self.update_buffer(
                "running_mean",
                ((1 - m) * self.running_mean + m * batch_mean).astype(stat_dtype))
            # Unbiased variance for the running estimate (torch convention).
            n = x.data.size // x.shape[1]
            unbiased = batch_var * (n / max(n - 1, 1))
            self.update_buffer(
                "running_var",
                ((1 - m) * self.running_var + m * unbiased).astype(stat_dtype))
            self.update_buffer("num_batches_tracked",
                               self.num_batches_tracked + 1)
            return batch_norm(x, self.gamma, self.beta, training=True,
                              eps=self.eps, batch_stats=stats,
                              negative_slope=negative_slope)
        return batch_norm(x, self.gamma, self.beta,
                          running_mean=self.running_mean,
                          running_var=self.running_var,
                          training=False, eps=self.eps,
                          negative_slope=negative_slope)

    def __repr__(self) -> str:
        return f"BatchNorm({self.num_features})"
