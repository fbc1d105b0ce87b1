"""Neural-network layers built on :mod:`repro.autograd`.

Provides the Module/Parameter system, convolution / normalization /
activation / pooling layers, containers, initialization schemes, and the
dimension-agnostic :class:`UNet` used by MGDiffNet.
"""

from .module import Module, Parameter
from .container import Sequential, ModuleList
from .conv import (ConvNd, Conv2d, Conv3d, ConvTransposeNd,
                   ConvTranspose2d, ConvTranspose3d)
from .norm import BatchNorm
from .activation import LeakyReLU, Sigmoid
from .pooling import MaxPool
from .unet import UNet, ConvBlock, UpBlock, RefinementBlock
from . import init

__all__ = [
    "Module", "Parameter", "Sequential", "ModuleList",
    "ConvNd", "Conv2d", "Conv3d",
    "ConvTransposeNd", "ConvTranspose2d", "ConvTranspose3d",
    "BatchNorm", "LeakyReLU", "Sigmoid", "MaxPool",
    "UNet", "ConvBlock", "UpBlock", "RefinementBlock",
    "init",
]
