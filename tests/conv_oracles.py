"""Reference convolutions the engine is tested against.

Two formulations that share no code with ``repro.backend.conv_plan`` —
no flat grid, no phases, no column chunks — and none with each other:

* ``tensordot``: the naive tap loop.  One strided window of the padded
  input per kernel tap, contracted over channels with ``einsum``; its
  adjoints (``grads``) are the same loop transposed.
* ``im2col``: NumPy's ``sliding_window_view`` of the padded input
  contracted against the whole kernel at once.

They are the formulations of the two engines the one engine replaced,
which is where the ids come from; as oracles they only have to be
obviously right, not fast.
"""

from __future__ import annotations

from itertools import product

import numpy as np


def _pad(x, padding):
    return np.pad(x, ((0, 0), (0, 0)) + tuple((p, p) for p in padding))


def _out_spatial(xp, w, stride):
    return tuple((s - k) // st + 1
                 for s, k, st in zip(xp.shape[2:], w.shape[2:], stride))


def _taps(w, out_spatial, stride):
    """``(index of the tap in w, index of its window in xp)`` per tap."""
    both = (slice(None), slice(None))
    for offset in product(*(range(k) for k in w.shape[2:])):
        window = tuple(slice(o, o + (so - 1) * st + 1, st)
                       for o, so, st in zip(offset, out_spatial, stride))
        yield both + offset, both + window


def tap_loop(x, w, stride, padding):
    xp = _pad(x, padding)
    out_spatial = _out_spatial(xp, w, stride)
    out = np.zeros((x.shape[0], w.shape[0]) + out_spatial,
                   np.result_type(x, w))
    for tap, window in _taps(w, out_spatial, stride):
        out += np.einsum("nc...,oc->no...", xp[window], w[tap])
    return out


def tap_loop_grads(x, w, g, stride, padding):
    """``(dx, dw)`` of ``sum(tap_loop(x, w) * g)``."""
    xp = _pad(x, padding)
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    batch_and_space = [0] + list(range(2, g.ndim))
    for tap, window in _taps(w, g.shape[2:], stride):
        dw[tap] = np.tensordot(g, xp[window], axes=(batch_and_space,) * 2)
        dxp[window] += np.einsum("no...,oc->nc...", g, w[tap])
    inner = tuple(slice(p, p + s) for p, s in zip(padding, x.shape[2:]))
    return dxp[(slice(None), slice(None)) + inner], dw


def window_view(x, w, stride, padding):
    nd = x.ndim - 2
    xp = _pad(x, padding)
    win = np.lib.stride_tricks.sliding_window_view(
        xp, w.shape[2:], axis=tuple(range(2, 2 + nd)))
    win = win[(slice(None), slice(None))
              + tuple(slice(None, None, st) for st in stride)]
    kernel_axes = list(range(2 + nd, 2 + 2 * nd))       # (N, Cin, *So, *K)
    out = np.tensordot(win, w, axes=([1] + kernel_axes,
                                     [1] + list(range(2, 2 + nd))))
    return np.moveaxis(out, -1, 1)                      # (N, *So, Cout)


ORACLES = {"tensordot": tap_loop, "im2col": window_view}
