"""The multigrid cycle as it was written before the zero-guess shortcuts:
every pre-smoothing starts from an explicit zero vector (``b - K @ 0``)
and every first coarse visit computes ``rc - K @ 0``.  The reference
``tests/fem/test_gmg_cycle.py`` compares the solver's ``_cycle`` against,
bitwise; it reads the hierarchy of a :class:`GeometricMultigrid` (each
level's operators ``op`` and ``cycle_op``) and shares no smoothing or
recursion code with it.  ``preconditioner`` is ``krylov.gmg_preconditioner``
as it was, with its first cycle correcting ``r - K @ 0``.

By default the cycle runs as the solver's does, in ``CYCLE_DTYPE`` on
``cycle_op``; ``exact=True`` runs it in float64 on ``op`` — the cycle
before mixed precision, which the float32 one is bounded against.
"""

from __future__ import annotations

import numpy as np

from repro.fem.gmg import CYCLE_DTYPE
from repro.fem.transfer import prolong_nested, restrict_nested

COARSE_VISITS = {"v": "v", "w": "ww", "f": "fv"}


def _operator(level, exact):
    return level.op if exact else level.cycle_op


def smooth(gmg, level, x, b, sweeps, exact=False):
    interior = ~level.dirichlet
    diag = level.op.diag()
    inv_d = np.where(diag != 0, 1.0 / diag, 0.0)
    weight = (gmg.omega * inv_d * interior).astype(
        np.float64 if exact else CYCLE_DTYPE)
    for _ in range(sweeps):
        r = b - _operator(level, exact) @ x
        x = x + weight * r
    return x


def cycle(gmg, li, b, kind, exact=False):
    level = gmg.levels[li]
    if li == len(gmg.levels) - 1:
        return gmg._coarse_solve(b)
    x = smooth(gmg, level, np.zeros_like(b), b, gmg.n_pre, exact)
    r = b - _operator(level, exact) @ x
    r *= ~level.dirichlet
    coarse = gmg.levels[li + 1]
    rc = restrict_nested(r.reshape(level.grid.shape), mode="dual").ravel()
    rc[coarse.dirichlet] = 0.0
    ec = np.zeros_like(rc)
    for sub in COARSE_VISITS[kind]:
        ec = ec + cycle(gmg, li + 1, rc - _operator(coarse, exact) @ ec, sub,
                        exact)
    e = prolong_nested(ec.reshape(coarse.grid.shape)).ravel()
    e[level.dirichlet] = 0.0
    return smooth(gmg, level, x + e, b, gmg.n_post, exact)


def correct(gmg, r, kind="v"):
    """``GeometricMultigrid.correct`` with the float64 cycle."""
    return cycle(gmg, 0, r, kind, exact=True)


def preconditioner(gmg, cycles=1):
    fine = gmg.levels[0]
    interior = ~fine.dirichlet

    def apply(r_interior):
        r_full = np.zeros(fine.grid.num_nodes)
        r_full[interior] = r_interior
        z = np.zeros_like(r_full)
        for _ in range(cycles):
            z = z + gmg.correct(r_full - fine.op @ z)
        return z[interior]

    return apply
