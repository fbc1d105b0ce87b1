"""Module / Parameter system (the minimal subset of the torch.nn contract
needed by MGDiffNet: parameter registration, train/eval modes, state dicts).
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from typing import Any, Iterator

import numpy as np

from ..autograd import Tensor

__all__ = ["Parameter", "Module"]


class Parameter(Tensor):
    """A Tensor that is registered as a trainable weight of a Module."""

    def __init__(self, data: Any, requires_grad: bool = True) -> None:
        super().__init__(data, requires_grad=requires_grad)


class Module:
    """Base class for all neural-network layers and containers.

    Subclasses assign :class:`Parameter` and :class:`Module` attributes in
    ``__init__`` and implement ``forward``.  Registration is automatic via
    ``__setattr__``.
    """

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "_buffers", OrderedDict())
        object.__setattr__(self, "training", True)

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def __setattr__(self, name: str, value: Any) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        else:
            # Re-assignments may shadow earlier registrations.
            self._parameters.pop(name, None)
            self._modules.pop(name, None)
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register non-trainable state (e.g. batch-norm running stats)."""
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    def update_buffer(self, name: str, value: np.ndarray) -> None:
        if name not in self._buffers:
            raise KeyError(f"no buffer named {name!r}")
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------ #
    # Traversal
    # ------------------------------------------------------------------ #
    def parameters(self) -> list[Parameter]:
        """All trainable parameters in registration order (depth first)."""
        return [p for _, p in self.named_parameters()]

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, p in self._parameters.items():
            yield (f"{prefix}{name}", p)
        for mname, m in self._modules.items():
            yield from m.named_parameters(prefix=f"{prefix}{mname}.")

    def named_buffers(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
        for name in self._buffers:
            yield (f"{prefix}{name}", self._buffers[name])
        for mname, m in self._modules.items():
            yield from m.named_buffers(prefix=f"{prefix}{mname}.")

    def modules(self) -> Iterator["Module"]:
        yield self
        for m in self._modules.values():
            yield from m.modules()

    def num_parameters(self) -> int:
        """Total scalar parameter count (the paper's ``Nw``)."""
        return int(sum(p.size for p in self.parameters()))

    # ------------------------------------------------------------------ #
    # Modes
    # ------------------------------------------------------------------ #
    def train(self, mode: bool = True) -> "Module":
        object.__setattr__(self, "training", mode)
        for m in self._modules.values():
            m.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    @contextmanager
    def evaluating(self) -> Iterator["Module"]:
        """Eval mode for the ``with`` body; the mode the module was in
        comes back on exit, also when the body raises."""
        was_training = self.training
        self.eval()
        try:
            yield self
        finally:
            self.train(was_training)

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def state_dict(self) -> dict[str, np.ndarray]:
        state: dict[str, np.ndarray] = {}
        for name, p in self.named_parameters():
            state[name] = p.data.copy()
        for name, b in self.named_buffers():
            state[f"buffer:{name}"] = np.asarray(b).copy()
        return state

    def load_state_dict(self, state: dict[str, np.ndarray], strict: bool = True) -> None:
        own_params = dict(self.named_parameters())
        for name, p in own_params.items():
            if name in state:
                if p.data.shape != state[name].shape:
                    raise ValueError(
                        f"shape mismatch for {name}: {p.data.shape} vs {state[name].shape}")
                p.data = state[name].astype(p.data.dtype).copy()
            elif strict:
                raise KeyError(f"missing parameter {name!r} in state dict")
        # Buffers are restored by walking modules with matching prefixes.
        buf_state = {k[len("buffer:"):]: v for k, v in state.items()
                     if k.startswith("buffer:")}
        self._load_buffers(buf_state, prefix="", strict=strict)

    def _load_buffers(self, buf_state: dict[str, np.ndarray], prefix: str,
                      strict: bool) -> None:
        for name in list(self._buffers):
            full = f"{prefix}{name}"
            if full in buf_state:
                self.update_buffer(name, buf_state[full].copy())
            elif strict:
                raise KeyError(f"missing buffer {full!r} in state dict")
        for mname, m in self._modules.items():
            m._load_buffers(buf_state, prefix=f"{prefix}{mname}.", strict=strict)

    # ------------------------------------------------------------------ #
    # Call protocol
    # ------------------------------------------------------------------ #
    def forward(self, *args: Any, **kwargs: Any) -> Tensor:
        raise NotImplementedError

    def __call__(self, *args: Any, **kwargs: Any) -> Tensor:
        return self.forward(*args, **kwargs)

    def __repr__(self) -> str:
        lines = [self.__class__.__name__ + "("]
        for name, m in self._modules.items():
            sub = repr(m).replace("\n", "\n  ")
            lines.append(f"  ({name}): {sub}")
        lines.append(")")
        return "\n".join(lines) if len(lines) > 2 else (
            f"{self.__class__.__name__}()")
