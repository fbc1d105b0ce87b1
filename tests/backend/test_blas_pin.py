"""Training pins numpy's bundled OpenBLAS to one thread (from the first
phase loop on, and when a ``DataParallelTrainer`` is built); importing
``repro`` leaves the host's setting alone.

Two BLAS threads change how a GEMM splits its reduction, so without the
pin a conv weight gradient — and the weights trained from it — depend on
the host's core count.  Each end-to-end case runs in a fresh
interpreter, with the thread count a host would set through
``OPENBLAS_NUM_THREADS``; the holds' own bookkeeping runs against a fake
OpenBLAS that counts the setter's calls.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import MGDiffNet, PoissonProblem2D, Trainer
from repro.backend import tuning
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

# One seeded multigrid cycle at the smallest grid whose trained bits
# differed between one and two BLAS threads before training pinned it:
# 16^3 over two levels, batch 4 (8^3, or batch 2, summed alike).
CYCLE = """
import hashlib
import numpy as np
from repro import MGDiffNet, MGTrainConfig, MultigridTrainer, PoissonProblem3D
from repro.backend.tuning import blas_threads

problem = PoissonProblem3D(16)
model = MGDiffNet(ndim=3, base_filters=4, depth=2, rng=0)
mg = MultigridTrainer(model, problem, problem.make_dataset(4), strategy="v",
                      levels=2, config=MGTrainConfig(
                          batch_size=4, restriction_epochs=1,
                          max_epochs_per_level=1, patience=10 ** 6))
h = hashlib.sha256()
for record in mg.train().records:
    h.update(np.asarray(record.result.losses).tobytes())
for value in model.state_dict().values():
    h.update(np.ascontiguousarray(value).tobytes())
print(h.hexdigest(), blas_threads())
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
def test_trained_weights_do_not_depend_on_the_thread_count():
    """Losses and weights of one multigrid cycle hash alike on one and
    two BLAS threads, and BLAS stays on one thread after the cycle."""
    one, two = _run(CYCLE, 1).split(), _run(CYCLE, 2).split()
    assert one[0] == two[0]
    assert two[1] == "1"


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


class FakeOpenBLAS:
    """The two entry points ``tuning`` calls, counting the setter."""

    def __init__(self, threads: int) -> None:
        self.threads, self.sets = threads, []

    def scipy_openblas_get_num_threads64_(self) -> int:
        return self.threads

    def scipy_openblas_set_num_threads64_(self, threads: int) -> None:
        self.sets.append(threads)
        self.threads = threads


@pytest.fixture
def fake_openblas(monkeypatch):
    """A factory for a fake OpenBLAS at a thread count, with no hold
    open and the malloc thresholds left alone."""
    monkeypatch.setattr(tuning, "_holds", 0)
    monkeypatch.setattr(tuning, "_held_from", None)
    monkeypatch.setattr(tuning, "_fix_malloc_thresholds", lambda: None)

    def make(threads: int) -> FakeOpenBLAS:
        lib = FakeOpenBLAS(threads)
        monkeypatch.setattr(tuning, "_numpy_openblas", lambda: lib)
        return lib
    return make


def test_a_hold_on_one_thread_calls_no_setter(fake_openblas):
    lib = fake_openblas(1)
    tuning.hold_one_blas_thread()
    tuning.hold_one_blas_thread()
    tuning.release_blas_thread()
    tuning.release_blas_thread()
    assert lib.sets == []


def test_a_hold_on_two_threads_sets_one_then_restores_two(fake_openblas):
    lib = fake_openblas(2)
    tuning.hold_one_blas_thread()
    tuning.hold_one_blas_thread()
    tuning.release_blas_thread()
    assert lib.sets == [1]
    tuning.release_blas_thread()
    assert lib.sets == [1, 2]


def test_a_pin_inside_a_hold_outlives_it(fake_openblas):
    lib = fake_openblas(2)
    tuning.hold_one_blas_thread()
    tuning.pin_blas_threads()
    tuning.release_blas_thread()
    assert lib.sets == [1] and lib.threads == 1


@pytest.mark.parametrize("threads, sets", [(1, []), (2, [1])])
def test_the_phase_loop_pins_one_thread_once(fake_openblas, threads, sets):
    """Two phase loops set one thread at most once, and not at all in a
    process already on one (a forked rank, or ``taskset -c 0``)."""
    lib = fake_openblas(threads)
    problem = PoissonProblem2D(8)
    trainer = Trainer(MGDiffNet(ndim=2, base_filters=2, depth=1, rng=0),
                      problem, problem.make_dataset(2))
    trainer.train_epochs(8, 1)
    trainer.train_until_converged(8, 1)
    assert lib.sets == sets and lib.threads == 1
