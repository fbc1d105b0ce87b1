"""MPI-style communicator over rank-indexed buffers.

Mirrors mpi4py's ``allreduce``, the one collective data parallelism
needs.  A collective takes every rank's buffer and returns every
rank's result: each data-parallel rank process runs it over all ranks'
rows, read from shared memory, and keeps its own.  Semantics are exact —
the Eq. 15 determinism arguments hold bit-for-bit — while *cost* is
tracked in a virtual clock fed by the performance model (Table 6
interconnects).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ring import ring_allreduce

__all__ = ["CommLog", "SimulatedCommunicator"]


@dataclass
class CommLog:
    """Accumulated communication record of a communicator."""

    allreduce_calls: int = 0
    allreduce_bytes: int = 0
    virtual_comm_seconds: float = 0.0


class SimulatedCommunicator:
    """A COMM_WORLD over ``world_size`` ranks.

    Collectives take *lists indexed by rank* and return the same, so every
    process that calls one with the same buffers computes the same
    result.  An optional ``time_model`` callable (message_bytes,
    world_size) -> seconds charges each collective to the virtual clock.
    """

    def __init__(self, world_size: int, time_model=None) -> None:
        if world_size < 1:
            raise ValueError("world_size must be >= 1")
        self.world_size = world_size
        self.time_model = time_model
        self.log = CommLog()

    # ------------------------------------------------------------------ #
    def allreduce(self, buffers: list[np.ndarray], average: bool = False
                  ) -> list[np.ndarray]:
        """Ring all-reduce across ranks (sum or mean)."""
        self._check(buffers)
        reduced, stats = ring_allreduce(buffers, average=average)
        self.log.allreduce_calls += 1
        self.log.allreduce_bytes += stats.total_bytes
        self._charge(stats.message_bytes)
        return reduced

    # ------------------------------------------------------------------ #
    def _check(self, buffers: list[np.ndarray]) -> None:
        if len(buffers) != self.world_size:
            raise ValueError(
                f"expected {self.world_size} rank buffers, got {len(buffers)}")

    def _charge(self, message_bytes: int) -> None:
        if self.time_model is not None:
            self.log.virtual_comm_seconds += float(
                self.time_model(message_bytes, self.world_size))
