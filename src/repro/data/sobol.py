"""Quasi-random Sobol sampling of the PDE parameter space.

The paper samples 65536 coefficient vectors ω with Sobol sampling
(Sec. 4.1).  We provide a from-scratch Gray-code Sobol generator (direction
numbers from Joe & Kuo for the first six dimensions — enough for the
m = 4 dimensional ω of Eq. 10 plus headroom) and cross-check it against
:mod:`scipy.stats.qmc` in the tests.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SobolSampler", "sample_omega"]

# Joe-Kuo new direction numbers: (dimension index, s, a, m_i...).  Dimension
# 0 is the van der Corput sequence (handled specially).
_JOE_KUO = [
    # s, a, [m_1, ..., m_s]
    (1, 0, [1]),
    (2, 1, [1, 3]),
    (3, 1, [1, 3, 1]),
    (3, 2, [1, 1, 1]),
    (4, 1, [1, 1, 3, 3]),
    (4, 4, [1, 3, 5, 13]),
    (5, 2, [1, 1, 5, 5, 17]),
    (5, 4, [1, 1, 5, 5, 5]),
    (5, 7, [1, 1, 7, 11, 19]),
]

_BITS = 31


class SobolSampler:
    """Gray-code Sobol sequence generator in up to 10 dimensions.

    Produces points in [0, 1)^d.  ``skip`` points can be discarded
    up-front (common practice: skip the initial zero point).
    """

    def __init__(self, dimension: int, skip: int = 1) -> None:
        if not 1 <= dimension <= 1 + len(_JOE_KUO):
            raise ValueError(f"dimension must be in [1, {1 + len(_JOE_KUO)}]")
        self.dimension = dimension
        self._v = self._direction_vectors(dimension)
        self._x = np.zeros(dimension, dtype=np.uint64)
        self._count = 0
        if skip:
            self.sample(skip)

    @staticmethod
    def _direction_vectors(dimension: int) -> np.ndarray:
        v = np.zeros((dimension, _BITS), dtype=np.uint64)
        # Dimension 0: van der Corput (m_i = 1 for all i).
        for i in range(_BITS):
            v[0, i] = np.uint64(1) << np.uint64(_BITS - 1 - i)
        for d in range(1, dimension):
            s, a, m = _JOE_KUO[d - 1]
            m = list(m)
            for i in range(_BITS):
                if i < s:
                    v[d, i] = np.uint64(m[i]) << np.uint64(_BITS - 1 - i)
                else:
                    new = int(v[d, i - s]) ^ (int(v[d, i - s]) >> s)
                    for k in range(1, s):
                        if (a >> (s - 1 - k)) & 1:
                            new ^= int(v[d, i - k])
                    v[d, i] = np.uint64(new)
        return v

    def sample(self, n: int) -> np.ndarray:
        """Next ``n`` points of the sequence, shape (n, dimension)."""
        out = np.empty((n, self.dimension), dtype=np.float64)
        x = self._x.copy()
        for j in range(n):
            out[j] = x.astype(np.float64) / float(1 << _BITS)
            # Advance by Gray code: flip direction of lowest zero bit of count.
            c = self._count
            pos = 0
            while c & 1:
                c >>= 1
                pos += 1
            x ^= self._v[:, pos]
            self._count += 1
        self._x = x
        return out


def sample_omega(n: int, m: int = 4, omega_range: tuple[float, float] = (-3.0, 3.0),
                 skip: int = 1) -> np.ndarray:
    """Sobol-sample ``n`` parameter vectors ω in ``omega_range^m`` with
    :class:`SobolSampler` (bitwise unscrambled :class:`scipy.stats.qmc.Sobol`
    with the same ``skip``, which the tests hold it to)."""
    lo, hi = omega_range
    return lo + (hi - lo) * SobolSampler(m, skip=skip).sample(n)
