"""Reverse-mode automatic differentiation over NumPy arrays.

This subpackage is the computational substrate of the reproduction: a
tape-based autodiff engine with the N-dimensional convolution family needed
by the fully convolutional MGDiffNet (Sec. 3.1.2 of the paper).

Public surface::

    from repro.autograd import Tensor, no_grad
    from repro.autograd import conv_nd, conv_transpose_nd, batch_norm
"""

from .function import Function, Context, no_grad, is_grad_enabled
from .tensor import Tensor
from .ops_basic import add, sub, mul
from .ops_reduce import sum_ as sum, mean  # noqa: A001
from .ops_activation import sigmoid, leaky_relu
from .ops_conv import (
    conv_nd, conv_transpose_nd,
    conv_output_shape, conv_transpose_output_shape, tuplify,
)
from .ops_norm import batch_norm
from .profiler import profile, Profile, OpStats

__all__ = [
    "Tensor", "Function", "Context", "no_grad", "is_grad_enabled",
    "add", "sub", "mul", "sum", "mean", "sigmoid", "leaky_relu",
    "conv_nd", "conv_transpose_nd",
    "conv_output_shape", "conv_transpose_output_shape", "tuplify",
    "batch_norm",
    "profile", "Profile", "OpStats",
]
