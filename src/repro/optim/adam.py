"""Adam optimizer (Kingma & Ba, 2015) — the optimizer used throughout the
paper's experiments (lr 1e-5 for the multigrid study, 1e-4 for scaling).
"""

from __future__ import annotations

import numpy as np

from .optimizer import Optimizer

__all__ = ["Adam"]


class Adam(Optimizer):
    """Adam with bias correction, at torch's default constants
    b1 = 0.9, b2 = 0.999, eps = 1e-8.

    m = b1*m + (1-b1)*g ;  v = b2*v + (1-b2)*g^2
    p -= lr * m_hat / (sqrt(v_hat) + eps)
    """

    betas = (0.9, 0.999)
    eps = 1e-8

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
