"""How many cores this process uses, and how many threads BLAS runs.

:func:`default_workers` is the one CPU count, for the serving executors,
the stencil mat-vec and the data-parallel rank processes;
:func:`pin_blas_threads` (applied when a ``DataParallelTrainer`` is
built, and in every process-executor child) holds numpy's bundled
OpenBLAS to one thread, so rank processes do not oversubscribe the cores
and a GEMM's summation order does not depend on the host's core count.
:func:`hold_one_blas_thread` does the same for as long as a multi-worker
thread executor is open, and :func:`release_blas_thread` restores the
count the first hold found.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from pathlib import Path

import numpy as np

__all__ = ["blas_threads", "default_workers", "hold_one_blas_thread",
           "pin_blas_threads", "release_blas_thread"]


def default_workers() -> int:
    """Worker count matching the cores this process may actually use."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


@functools.cache
def _numpy_openblas() -> ctypes.CDLL | None:
    """numpy's bundled OpenBLAS (the copy numpy loaded), or None when
    numpy was built against another BLAS."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*")):
        try:
            lib = ctypes.CDLL(str(path))
            get = lib.scipy_openblas_get_num_threads64_
            put = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return lib
    return None


def blas_threads() -> int | None:
    """Threads numpy's bundled OpenBLAS runs on; None when there is none."""
    lib = _numpy_openblas()
    return None if lib is None else int(lib.scipy_openblas_get_num_threads64_())


# Open holds of hold_one_blas_thread, and the count the first one found.
_HOLD_LOCK = threading.Lock()
_holds = 0
_held_from: int | None = None


def pin_blas_threads() -> bool:
    """Run numpy's bundled OpenBLAS on one thread; True when it now does.

    Parallelism here is across processes and the stencil's row blocks,
    never inside one GEMM: a second BLAS thread bought no speed, spun
    the idle core, and changed the bits of a reduction with the host's
    core count.  The pin is for good: a hold released later keeps it.
    """
    global _held_from
    lib = _numpy_openblas()
    if lib is not None:
        with _HOLD_LOCK:
            lib.scipy_openblas_set_num_threads64_(1)
            if _holds:
                _held_from = 1
    return blas_threads() == 1


def hold_one_blas_thread() -> None:
    """Run OpenBLAS on one thread until the matching
    :func:`release_blas_thread`.  Holds nest; the first saves the count
    it found.  Tile threads are the parallelism: two of them each fanning
    a GEMM over both cores ran slower than one thread alone."""
    global _holds, _held_from
    lib = _numpy_openblas()
    if lib is None:
        return
    with _HOLD_LOCK:
        if not _holds:
            _held_from = int(lib.scipy_openblas_get_num_threads64_())
            lib.scipy_openblas_set_num_threads64_(1)
        _holds += 1


def release_blas_thread() -> None:
    """End one :func:`hold_one_blas_thread`; the last restores the count
    the first found (or keeps a :func:`pin_blas_threads` made since)."""
    global _holds
    lib = _numpy_openblas()
    if lib is None:
        return
    with _HOLD_LOCK:
        _holds -= 1
        if not _holds:
            lib.scipy_openblas_set_num_threads64_(_held_from)
