"""Ring all-reduce (Sergeev & Del Balso / Baidu) — the collective behind
the paper's gradient averaging (Sec. 3.2).

Implements the genuine two-phase algorithm over rank-indexed buffers:

1. *scatter-reduce*: p-1 steps; after step s, each rank holds a partial
   sum of one more chunk.  Rank r ends up owning the fully reduced chunk
   ``(r + 1) mod p``.
2. *all-gather*: p-1 steps circulating the reduced chunks.

Every step's per-rank traffic is accounted, so tests can check the
``2 (p-1)/p * N`` communication volume that underlies the paper's
``O(Nw + log p)`` scalability claim.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


__all__ = ["RingStats", "ring_allreduce"]


@dataclass
class RingStats:
    """Communication accounting for one ring all-reduce."""

    world_size: int
    message_elements: int
    itemsize: int
    steps: int = 0
    bytes_sent_per_rank: int = 0

    @property
    def message_bytes(self) -> int:
        return self.message_elements * self.itemsize

    @property
    def total_bytes(self) -> int:
        return self.bytes_sent_per_rank * self.world_size

    @property
    def theoretical_bytes_per_rank(self) -> float:
        """The textbook 2 (p-1)/p * message volume."""
        p = self.world_size
        return 2.0 * (p - 1) / p * self.message_bytes


def _chunk_slices(n: int, p: int) -> list[slice]:
    """Split [0, n) into p contiguous nearly-equal chunks."""
    bounds = np.linspace(0, n, p + 1).astype(int)
    return [slice(int(bounds[i]), int(bounds[i + 1])) for i in range(p)]


def ring_allreduce(buffers: list[np.ndarray], average: bool = False
                   ) -> tuple[list[np.ndarray], RingStats]:
    """All-reduce 1-D buffers across simulated ranks via the ring algorithm.

    Parameters
    ----------
    buffers:
        One flat array per rank (identical shapes/dtypes).  Inputs are not
        modified.
    average:
        Divide the result by the world size (gradient averaging).

    Returns
    -------
    (reduced, stats):
        ``reduced[r]`` is the identical reduced vector for rank r (fresh
        arrays), plus the communication statistics.
    """
    p = len(buffers)
    if p == 0:
        raise ValueError("need at least one rank")
    n = buffers[0].size
    for b in buffers:
        if b.ndim != 1 or b.size != n:
            raise ValueError("all buffers must be flat arrays of equal size")
        if b.dtype != buffers[0].dtype:
            raise ValueError("all buffers must share a dtype")

    stats = RingStats(world_size=p, message_elements=n,
                      itemsize=buffers[0].dtype.itemsize)
    if p == 1:
        out = buffers[0].copy()
        if average:
            out = out / 1.0
        return [out], stats

    chunks = _chunk_slices(n, p)
    # Per-rank float64 accumulation rows, one fresh copy of each input.
    work = [np.array(b, dtype=np.float64) for b in buffers]

    # Phase 1: scatter-reduce.  At step s, rank r sends chunk (r - s) mod p
    # to rank (r + 1) mod p, which accumulates it.
    for s in range(p - 1):
        sends = []
        for r in range(p):
            ci = (r - s) % p
            sends.append((r, ci, work[r][chunks[ci]].copy()))
        for r, ci, data in sends:
            dest = (r + 1) % p
            work[dest][chunks[ci]] += data
        stats.steps += 1
        # All ranks send one chunk per step; account the max chunk size
        # (ranks progress in lockstep).
        stats.bytes_sent_per_rank += int(
            max(ch.stop - ch.start for ch in chunks)) * stats.itemsize

    # Phase 2: all-gather.  Rank r owns reduced chunk (r + 1) mod p; at
    # step s it forwards chunk (r + 1 - s) mod p to rank (r + 1) mod p.
    for s in range(p - 1):
        sends = []
        for r in range(p):
            ci = (r + 1 - s) % p
            sends.append((r, ci, work[r][chunks[ci]].copy()))
        for r, ci, data in sends:
            dest = (r + 1) % p
            work[dest][chunks[ci]] = data
        stats.steps += 1
        stats.bytes_sent_per_rank += int(
            max(ch.stop - ch.start for ch in chunks)) * stats.itemsize

    if average:
        for w in work:
            w /= p
    return [w.astype(buffers[0].dtype) for w in work], stats
