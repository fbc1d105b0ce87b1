"""The multigrid cycle as it was written before the zero-guess shortcuts:
every pre-smoothing starts from an explicit zero vector (``b - K @ 0``)
and every first coarse visit computes ``rc - K @ 0``.  The reference
``tests/fem/test_gmg_cycle.py`` compares the solver's ``_cycle`` against,
bitwise; it reads the hierarchy of a :class:`GeometricMultigrid` and
shares no smoothing or recursion code with it.
"""

from __future__ import annotations

import numpy as np

from repro.fem.transfer import prolong_nested, restrict_nested

COARSE_VISITS = {"v": "v", "w": "ww", "f": "fv"}


def smooth(gmg, level, x, b, sweeps):
    interior = ~level.dirichlet
    diag = level.matrix.diagonal()
    inv_d = np.where(diag != 0, 1.0 / diag, 0.0)
    for _ in range(sweeps):
        r = b - level.matrix @ x
        x = x + gmg.omega * inv_d * r * interior
    return x


def cycle(gmg, li, b, kind):
    level = gmg.levels[li]
    if li == len(gmg.levels) - 1:
        return gmg._coarse_solve(b)
    x = smooth(gmg, level, np.zeros_like(b), b, gmg.n_pre)
    r = b - level.matrix @ x
    r *= ~level.dirichlet
    coarse = gmg.levels[li + 1]
    rc = restrict_nested(r.reshape(level.grid.shape), mode="dual").ravel()
    rc[coarse.dirichlet] = 0.0
    ec = np.zeros_like(rc)
    for sub in COARSE_VISITS[kind]:
        ec = ec + cycle(gmg, li + 1, rc - coarse.matrix @ ec, sub)
    e = prolong_nested(ec.reshape(coarse.grid.shape)).ravel()
    e[level.dirichlet] = 0.0
    return smooth(gmg, level, x + e, b, gmg.n_post)
