"""Run the mutant table: every planted defect must fail a named test.

    python -m tests.mutate

Copies ``src/`` and ``tests/`` side by side into a temporary directory
(the guards find ``src/repro`` from their own ``__file__``, so a copy of
``src/`` alone would leave them reading the unmutated tree), with what
the reach ledger runs and reads (``bench/``, ``examples/``, README.md,
ROADMAP.md), checks
that every snippet of ``tests/mutants.py`` occurs exactly once, runs the
union of the killing tests once on the clean copy (they must pass, or a
"kill" proves nothing), then applies one mutant at a time and runs only
its tests, sequentially, with ``-x -p no:cacheprovider`` and a fixed
hypothesis seed.  A mutant is killed when its tests fail (or run past
``TIMEOUT_S``, reported separately); it survives when they pass, and a
mutant that breaks collection (an import error, a test id that no
longer exists) counts as an error.

Exit status 1 when a snippet is stale, the clean run fails, or any
mutant survives.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tests.mutants import MUTANTS, Mutant

ROOT = Path(__file__).resolve().parents[1]
# Seconds one mutant's tests may run; the clean run gets four times this.
TIMEOUT_S = 120.0


def stale(mutants: list[Mutant]) -> list[str]:
    """Mutants whose snippet does not occur exactly once in their file."""
    out = []
    for m in mutants:
        path = ROOT / m.file
        count = path.read_text().count(m.old) if path.exists() else 0
        if count != 1:
            out.append(f"{m.name}: {m.file} holds the snippet {count}x")
    return out


def _pytest(workdir: Path, ids, timeout: float) -> tuple[int | None, float]:
    """Return code (None on timeout) and wall seconds of one run."""
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "--no-header",
           "-p", "no:cacheprovider", "--hypothesis-seed=0", *ids]
    start = time.perf_counter()
    try:
        done = subprocess.run(cmd, cwd=workdir, env=env, timeout=timeout,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return None, time.perf_counter() - start
    return done.returncode, time.perf_counter() - start


def main() -> int:
    bad = stale(MUTANTS)
    if bad:
        print("stale mutants:\n  " + "\n  ".join(bad))
        return 1
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        work = Path(tmp)
        for tree in ("src", "tests", "bench", "examples"):
            shutil.copytree(ROOT / tree, work / tree,
                            ignore=shutil.ignore_patterns(
                                "__pycache__", ".hypothesis", ".pytest_cache"))
        for name in ("pytest.ini", "README.md", "ROADMAP.md"):
            shutil.copy2(ROOT / name, work / name)
        ids = sorted({test for m in MUTANTS for test in m.killers})
        code, wall = _pytest(work, ids, timeout=TIMEOUT_S * 4)
        print(f"clean run of {len(ids)} killing tests: "
              f"{'pass' if code == 0 else f'FAIL ({code})'} in {wall:.1f}s")
        if code != 0:
            return 1
        survived, timed_out = [], []
        for m in MUTANTS:
            path = work / m.file
            original = path.read_text()
            path.write_text(original.replace(m.old, m.new))
            try:
                code, wall = _pytest(work, m.killers, timeout=TIMEOUT_S)
            finally:
                path.write_text(original)
            # 1: a test failed.  2-5 (collection or usage errors) mean
            # the mutant broke the run, not that a test caught it.
            verdict = {None: "timeout", 1: "killed", 0: "SURVIVED"}.get(
                code, f"ERROR ({code})")
            print(f"{verdict:10s} {wall:6.1f}s  {m.name}", flush=True)
            if code is None:
                timed_out.append(m.name)
            elif code != 1:
                survived.append(m.name)
    print(f"{len(MUTANTS) - len(survived)} of {len(MUTANTS)} mutants killed"
          f" ({len(timed_out)} by timeout)")
    if survived:
        print("survived or errored:\n  " + "\n  ".join(survived))
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
