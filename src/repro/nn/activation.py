"""Activation layers."""

from __future__ import annotations

from ..autograd import Tensor
from ..autograd import ops_activation as oa
from .module import Module

__all__ = ["LeakyReLU", "Sigmoid"]


class LeakyReLU(Module):
    """LeakyReLU — the intermediate activation of the paper's U-Net."""

    def __init__(self, negative_slope: float = 0.01) -> None:
        super().__init__()
        self.negative_slope = negative_slope

    def forward(self, x: Tensor) -> Tensor:
        return oa.leaky_relu(x, self.negative_slope)

    def __repr__(self) -> str:
        return f"LeakyReLU({self.negative_slope})"


class Sigmoid(Module):
    """Sigmoid — the final activation of the paper's U-Net; its [0, 1]
    range matches the Dirichlet data ``u(0,·)=1, u(1,·)=0``."""

    def forward(self, x: Tensor) -> Tensor:
        return oa.sigmoid(x)

    def __repr__(self) -> str:
        return "Sigmoid()"
