"""Weight initialization schemes.

Kaiming (He) initialization is the default for conv layers feeding
LeakyReLU activations, per common U-Net practice.
"""

from __future__ import annotations

import math

import numpy as np

from ..backend.dtype import get_default_dtype

__all__ = ["kaiming_normal", "zeros", "calculate_fan"]


def calculate_fan(shape: tuple[int, ...]) -> int:
    """Fan-in of a conv weight (C_out, C_in, *kernel) or dense (out, in)."""
    if len(shape) < 2:
        raise ValueError("fan requires at least 2 dims")
    return shape[1] * math.prod(shape[2:])


def kaiming_normal(shape: tuple[int, ...], rng: np.random.Generator,
                   negative_slope: float = 0.0) -> np.ndarray:
    """He-normal init in the default dtype: std = gain / sqrt(fan_in)."""
    gain = math.sqrt(2.0 / (1.0 + negative_slope ** 2))
    std = gain / math.sqrt(calculate_fan(shape))
    return (rng.standard_normal(shape) * std).astype(get_default_dtype())


def zeros(shape: tuple[int, ...], dtype=None) -> np.ndarray:
    return np.zeros(shape, dtype=dtype or get_default_dtype())
