"""Building a ``DataParallelTrainer`` pins numpy's bundled OpenBLAS to
one thread; importing ``repro`` leaves the host's setting alone.

Two BLAS threads change how a GEMM splits its reduction, so without the
pin a conv weight gradient — and the weights trained from it — depend on
the host's core count.  Each case runs in a fresh interpreter, with the
thread count a host would set through ``OPENBLAS_NUM_THREADS``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.backend.tuning import blas_threads, default_workers

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

TRAINER = """
from repro import MGDiffNet, PoissonProblem2D
from repro.distributed import DataParallelTrainer, DPConfig

problem = PoissonProblem2D(8)
DataParallelTrainer(
    lambda: MGDiffNet(ndim=2, base_filters=4, depth=1, rng=0), problem,
    problem.make_dataset(4), DPConfig(world_size=2, batch_size=2))
"""

DIGEST = TRAINER + """
import hashlib
import numpy as np
from repro.backend.conv_plan import conv_backward_weight, plan_conv

h = hashlib.sha256()
rng = np.random.default_rng(0)
for x_shape, w_shape in [((2, 16, 64, 64), (8, 16, 3, 3)),
                         ((4, 16, 16, 16, 16), (8, 16, 3, 3, 3))]:
    nd = len(x_shape) - 2
    x = rng.standard_normal(x_shape).astype(np.float32)
    g = rng.standard_normal(x_shape[:1] + w_shape[:1] + x_shape[2:])
    plan = plan_conv(x.shape, w_shape, (1,) * nd, (1,) * nd, np.float32)
    h.update(conv_backward_weight(plan, x, g.astype(np.float32)).tobytes())
print(h.hexdigest())
"""

THREADS = """
import repro
from repro.backend.tuning import blas_threads
print(blas_threads())
"""

needs_openblas = pytest.mark.skipif(
    blas_threads() is None, reason="numpy has no bundled OpenBLAS")


def _run(code: str, threads: int) -> str:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(
                   [str(SRC.parent)] + os.environ.get("PYTHONPATH", "").split(
                       os.pathsep)))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


@needs_openblas
def test_weight_gradients_do_not_depend_on_the_thread_count():
    assert _run(DIGEST, 1) == _run(DIGEST, 2)


@needs_openblas
@pytest.mark.skipif(default_workers() < 2,
                    reason="OpenBLAS caps its threads at the CPU count")
def test_import_leaves_the_thread_count_alone():
    assert _run(THREADS, 2) == "2"


@needs_openblas
def test_one_thread_once_a_trainer_is_built():
    assert _run(TRAINER + THREADS, 2) == "1"


def test_one_openblas_lookup():
    """numpy's OpenBLAS is looked up in ``backend/tuning.py`` only."""
    users = sorted(str(p.relative_to(SRC)) for p in SRC.rglob("*.py")
                   if "scipy_openblas" in p.read_text())
    assert users == ["backend/tuning.py"]


EXECUTORS = """
from repro.backend.tuning import blas_threads
from repro.serve import make_executor

def task(_):
    return blas_threads()

with make_executor("process", 2) as pool:
    child = set(pool.map(task, range(4)))
with make_executor("thread", 2) as one, make_executor("thread", 2) as two:
    held = blas_threads()
    one.close()
    still = blas_threads()
with make_executor("thread", 1):
    single = blas_threads()

import sys, threading

def churn():
    for _ in range(50):
        make_executor("thread", 2).close()

sys.setswitchinterval(1e-6)
threads = [threading.Thread(target=churn) for _ in range(6)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(timeout=60)
assert not any(thread.is_alive() for thread in threads)
print(sorted(child), held, still, blas_threads(), single)
"""


@needs_openblas
@pytest.mark.skipif(default_workers() < 2,
                    reason="OpenBLAS caps its threads at the CPU count")
def test_executor_workers_run_blas_on_one_thread():
    """Process children run OpenBLAS on one thread while the parent keeps
    its two; thread executors with two workers hold it at one until the
    last of them closes (also when six threads open and close them at
    once), and a one-worker executor leaves it alone."""
    assert _run(EXECUTORS, 2) == "[1] 1 1 2 2"
