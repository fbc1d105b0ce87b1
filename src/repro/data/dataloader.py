"""Deterministic mini-batch iteration with worker sharding (Eq. 15).

The global shuffle depends only on ``(seed, epoch)``; each global
mini-batch is split into ``world_size`` equal local mini-batches so the
union of local batches equals the single-worker global batch exactly:

    U_i (LMB)_n^i == (GMB)_n       for every batch index n.

This is the property the paper uses to guarantee worker-count-independent
training, and it is asserted by property-based tests.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

__all__ = ["BatchSampler", "shard_batch"]


class BatchSampler:
    """Yields index arrays of global mini-batches for a given epoch."""

    def __init__(self, n_samples: int, batch_size: int, seed: int = 0,
                 shuffle: bool = True) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.n_samples = n_samples
        self.batch_size = batch_size
        self.seed = seed
        self.shuffle = shuffle

    def num_batches(self) -> int:
        """Every sample once: the last batch may be short."""
        return -(-self.n_samples // self.batch_size)

    def epoch_indices(self, epoch: int) -> np.ndarray:
        idx = np.arange(self.n_samples)
        if self.shuffle:
            rng = np.random.default_rng((self.seed, epoch))
            rng.shuffle(idx)
        return idx

    def batches(self, epoch: int) -> Iterator[np.ndarray]:
        idx = self.epoch_indices(epoch)
        nb = self.num_batches()
        for b in range(nb):
            yield idx[b * self.batch_size:(b + 1) * self.batch_size]


def shard_batch(batch_indices: np.ndarray, world_size: int,
                rank: int | None = None) -> np.ndarray | list[np.ndarray]:
    """Split a global mini-batch into equal local mini-batches.

    With ``rank`` given, returns that worker's shard; otherwise the list of
    all shards.  Requires the batch size to be divisible by ``world_size``
    (guaranteed after dataset augmentation), so local batches always have
    identical sizes — the paper's load-balance argument (Fig. 5).
    """
    bs = len(batch_indices)
    if bs % world_size:
        raise ValueError(
            f"global batch size {bs} not divisible by world size {world_size}")
    local = bs // world_size
    shards = [batch_indices[i * local:(i + 1) * local] for i in range(world_size)]
    if rank is not None:
        return shards[rank]
    return shards
