"""Deterministic RNG management.

Every stochastic component in the library takes an explicit
:class:`numpy.random.Generator`; this module provides the conventions for
deriving independent child generators so distributed replicas and data
pipelines stay reproducible (a prerequisite for the Eq. 15 worker-count
independence property).
"""

from __future__ import annotations

import numpy as np

__all__ = ["make_rng", "spawn_rngs"]


def make_rng(seed: int | np.random.Generator | None = None) -> np.random.Generator:
    """Return a Generator; pass-through if one is given."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rngs(rng: np.random.Generator, n: int) -> list[np.random.Generator]:
    """Derive ``n`` statistically independent child generators."""
    return [np.random.default_rng(s) for s in rng.bit_generator.seed_seq.spawn(n)]

