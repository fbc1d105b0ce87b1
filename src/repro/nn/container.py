"""Module containers."""

from __future__ import annotations

from typing import Iterable, Iterator

from .module import Module

__all__ = ["ModuleList"]


class ModuleList(Module):
    """List of modules registered as children (no implicit forward)."""

    def __init__(self, modules: Iterable[Module] = ()) -> None:
        super().__init__()
        self._n = 0
        for m in modules:
            self.append(m)

    def append(self, module: Module) -> "ModuleList":
        setattr(self, str(self._n), module)
        object.__setattr__(self, "_n", self._n + 1)
        return self

    def __len__(self) -> int:
        return self._n

    def __iter__(self) -> Iterator[Module]:
        return (getattr(self, str(i)) for i in range(self._n))

    def __getitem__(self, i: int) -> Module:
        if not -self._n <= i < self._n:
            raise IndexError(i)
        return getattr(self, str(i % self._n))

    def __setitem__(self, i: int, module: Module) -> None:
        if not -self._n <= i < self._n:
            raise IndexError(i)
        setattr(self, str(i % self._n), module)
