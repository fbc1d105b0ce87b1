"""Neural-network layers built on :mod:`repro.autograd`.

Provides the Module/Parameter system, convolution / normalization /
activation layers, containers, initialization schemes, and the
dimension-agnostic :class:`UNet` used by MGDiffNet.
"""

from .module import Module, Parameter
from .container import ModuleList
from .conv import ConvNd, ConvTransposeNd
from .norm import BatchNorm
from .activation import LeakyReLU, Sigmoid
from .unet import UNet, ConvBlock, UpBlock, RefinementBlock
from . import init

__all__ = [
    "Module", "Parameter", "ModuleList",
    "ConvNd", "ConvTransposeNd",
    "BatchNorm", "LeakyReLU", "Sigmoid",
    "UNet", "ConvBlock", "UpBlock", "RefinementBlock",
    "init",
]
