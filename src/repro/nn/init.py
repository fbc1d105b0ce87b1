"""Weight initialization schemes.

Kaiming (He) initialization is the default for conv layers feeding
LeakyReLU activations, per common U-Net practice.
"""

from __future__ import annotations

import math

import numpy as np

from ..backend.dtype import get_default_dtype

__all__ = ["kaiming_normal", "zeros", "calculate_fan"]


def calculate_fan(shape: tuple[int, ...], mode: str = "fan_in") -> int:
    """Fan-in/out for a conv weight (C_out, C_in, *kernel) or dense (out, in)."""
    if len(shape) < 2:
        raise ValueError("fan requires at least 2 dims")
    receptive = math.prod(shape[2:]) if len(shape) > 2 else 1
    fan_in = shape[1] * receptive
    fan_out = shape[0] * receptive
    return fan_in if mode == "fan_in" else fan_out


def kaiming_normal(shape: tuple[int, ...], rng: np.random.Generator,
                   negative_slope: float = 0.0, mode: str = "fan_in",
                   dtype=None) -> np.ndarray:
    """He-normal init: std = gain / sqrt(fan)."""
    dtype = dtype or get_default_dtype()
    fan = calculate_fan(shape, mode)
    gain = math.sqrt(2.0 / (1.0 + negative_slope ** 2))
    std = gain / math.sqrt(fan)
    return (rng.standard_normal(shape) * std).astype(dtype)


def zeros(shape: tuple[int, ...], dtype=None) -> np.ndarray:
    return np.zeros(shape, dtype=dtype or get_default_dtype())
