"""Data pipeline: Sobol sampling, the Eq. 10 diffusivity family, datasets
and deterministic sharded batch iteration."""

from .sobol import SobolSampler, sample_omega
from .diffusivity import LogPermeabilityField, DEFAULT_A
from .dataset import DiffusivityDataset
from .dataloader import BatchSampler, shard_batch

__all__ = [
    "SobolSampler", "sample_omega",
    "LogPermeabilityField", "DEFAULT_A",
    "DiffusivityDataset",
    "BatchSampler", "shard_batch",
]
