"""Distributed runtime: ring all-reduce, MPI-style collectives, and the
data-parallel trainer with Eq. 15 sharding, its ranks in forked processes.

Spatial (model-parallel) decomposition of one field is the tile engine,
:mod:`repro.serve.tiling`."""

from .ring import ring_allreduce, RingStats
from .comm import SimulatedCommunicator, CommLog
from .data_parallel import (DataParallelTrainer, DPConfig, DPResult,
                            flatten_gradients, unflatten_to_gradients)

__all__ = [
    "ring_allreduce", "RingStats",
    "SimulatedCommunicator", "CommLog",
    "DataParallelTrainer", "DPConfig", "DPResult",
    "flatten_gradients", "unflatten_to_gradients",
]
