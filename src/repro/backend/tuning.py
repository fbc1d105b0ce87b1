"""How many cores this process uses, and how many threads BLAS runs.

:func:`default_workers` is the one CPU count, for the serving executors,
the stencil mat-vec and the data-parallel rank processes;
:func:`pin_blas_threads` (applied when a ``DataParallelTrainer`` is
built, and in every process-executor child) holds numpy's bundled
OpenBLAS to one thread, so rank processes do not oversubscribe the cores
and a GEMM's summation order does not depend on the host's core count.
:func:`hold_one_blas_thread` does the same for as long as a multi-worker
thread executor is open, and :func:`release_blas_thread` restores the
count the first hold found.  :func:`apply_training_policy`, which every
phase loop runs first, adds fixed malloc thresholds to the pin.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import threading
from pathlib import Path

import numpy as np

__all__ = ["apply_training_policy", "blas_threads", "default_workers",
           "hold_one_blas_thread", "pin_blas_threads", "release_blas_thread"]


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


def _one_thread(lib: ctypes.CDLL) -> int:
    """Set one thread, unless OpenBLAS runs one (a forked rank re-setting
    it paid for it); return the count found."""
    found = int(lib.scipy_openblas_get_num_threads64_())
    if found != 1:
        lib.scipy_openblas_set_num_threads64_(1)
    return found


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
            _one_thread(lib)
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
            _held_from = _one_thread(lib)
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
        if not _holds and _held_from != 1:
            lib.scipy_openblas_set_num_threads64_(_held_from)


@functools.cache
def _fix_malloc_thresholds() -> None:
    """Serve blocks below 6 MiB from the heap and keep up to 32 MiB of
    freed heap top, for good; a no-op off glibc.

    glibc's own thresholds move with the allocation history; in about
    half of fresh processes they left a ``train_mg3d`` step giving its
    heap back and faulting it in again (~64 k minor faults per V-cycle).
    6 MiB keeps that run's 4 MiB input gradients on the heap and its
    8 MiB conv arena mapped; 8 MiB or more cost ~6 % peak RSS.  Setting
    either threshold switches the moving one off, and no call switches
    it back on, so there is nothing to release.
    """
    with contextlib.suppress(OSError, AttributeError):
        mallopt = ctypes.CDLL(None).mallopt
        mallopt(-3, 6 << 20)        # M_MMAP_THRESHOLD
        mallopt(-1, 32 << 20)       # M_TRIM_THRESHOLD


def apply_training_policy() -> None:
    """Fix the malloc thresholds and pin OpenBLAS at one thread, from the
    first phase loop on.  The pin is not released with the loop: a step
    rebuilt from public pieces between two loops must reproduce the
    loop's bits.  Serving and tiled inference build no trainer."""
    _fix_malloc_thresholds()
    pin_blas_threads()
