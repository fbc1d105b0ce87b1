"""Adam optimizer (Kingma & Ba, 2015) — the optimizer used throughout the
paper's experiments (lr 1e-5 for the multigrid study, 1e-4 for scaling).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..nn.module import Parameter
from .optimizer import Optimizer

__all__ = ["Adam"]


class Adam(Optimizer):
    """Adam with bias correction.

    m = b1*m + (1-b1)*g ;  v = b2*v + (1-b2)*g^2
    p -= lr * m_hat / (sqrt(v_hat) + eps)
    """

    def __init__(self, params: Iterable[Parameter], lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999),
                 eps: float = 1e-8) -> None:
        super().__init__(params, lr)
        b1, b2 = betas
        if not 0.0 <= b1 < 1.0 or not 0.0 <= b2 < 1.0:
            raise ValueError(f"invalid betas {betas}")
        self.betas = (float(b1), float(b2))
        self.eps = float(eps)

    def step(self) -> None:
        self._step_count += 1
        b1, b2 = self.betas
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            g = p.grad
            st = self.state.setdefault(i, {})
            if "m" not in st:
                st["m"] = np.zeros_like(p.data)
                st["v"] = np.zeros_like(p.data)
                st["t"] = 0
            st["t"] += 1
            t = st["t"]
            st["m"] = b1 * st["m"] + (1 - b1) * g
            st["v"] = b2 * st["v"] + (1 - b2) * (g * g)
            m_hat = st["m"] / (1 - b1 ** t)
            v_hat = st["v"] / (1 - b2 ** t)
            p.data -= (self.lr * m_hat / (np.sqrt(v_hat) + self.eps)).astype(p.data.dtype)
