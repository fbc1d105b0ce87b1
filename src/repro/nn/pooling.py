"""Pooling layers (factor-of-two downsampling, Sec. 3.1.2 property 2)."""

from __future__ import annotations

from ..autograd import Tensor, max_pool_nd
from .module import Module

__all__ = ["MaxPool"]


class MaxPool(Module):
    def __init__(self, kernel: int = 2) -> None:
        super().__init__()
        self.kernel = kernel

    def forward(self, x: Tensor) -> Tensor:
        return max_pool_nd(x, self.kernel)

    def __repr__(self) -> str:
        return f"MaxPool({self.kernel})"
