"""Optimizer base class."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..nn.module import Parameter

__all__ = ["Optimizer"]


class Optimizer:
    """Base class: holds a parameter list and per-parameter state.

    Subclasses implement :meth:`step`, reading ``p.grad`` and updating
    ``p.data`` in place.  State is keyed by parameter index so that
    optimizers survive ``load_state_dict`` on the model (parameter objects
    are mutated in place there, not replaced).
    """

    def __init__(self, params: Iterable[Parameter], lr: float) -> None:
        self.params: list[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimizer got an empty parameter list")
        if lr <= 0:
            raise ValueError(f"invalid learning rate {lr}")
        self.lr = float(lr)
        self.state: dict[int, dict[str, np.ndarray]] = {}
        self._step_count = 0

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        raise NotImplementedError

    def sync_params(self, module) -> None:
        """Re-collect parameters from a module after structural surgery.

        Preserves state of surviving parameters (matched by identity) and
        initializes fresh state for new ones.
        """
        new_params = list(module.parameters())
        old_ids = {id(p): i for i, p in enumerate(self.params)}
        new_state: dict[int, dict[str, np.ndarray]] = {}
        for j, p in enumerate(new_params):
            if id(p) in old_ids:
                i = old_ids[id(p)]
                if i in self.state:
                    new_state[j] = self.state[i]
        self.params = new_params
        self.state = new_state
