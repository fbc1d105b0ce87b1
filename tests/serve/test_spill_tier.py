"""The per-instance spill tier: one directory, one writing cache.

Contracts pinned here:

* **Garbage never serves** — a torn or foreign file under a key's spill
  name (empty, truncated, not a zip, a bare .npy, the wrong member) is a
  miss: it is deleted, deregistered from the budget, and the recomputed
  value replaces it on the next write.  Nothing in it is ever unpickled.
* **Budget from the instance's own books** — a restart adopts whatever
  the directory holds at its stat size, garbage included, and trims it
  to ``spill_max_bytes``; sibling directories never evict each other;
  threads writing into one cache, even racing on one key, keep the books
  equal to the directory.
* **Restart across processes** — a cache in a fresh process reads the
  files another process's cache left behind.
* **One layout** — a fleet spills into one ``shard-NN`` subdirectory per
  shard, and prunes every one of them.
"""

import io
import os
import pickle
import shutil
import subprocess
import sys
import threading
import zipfile
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.serve import FleetConfig, LRUCache, ServerConfig, ShardedFleet
from repro.serve import cache as cache_mod
from repro.serve.cache import spill_file_name
from tests.properties.test_cache_invariants import (
    MEM_BUDGET, N_OPS, SEEDS, SPILL_BUDGET, _check_cache, _value,
)

VALUE = np.arange(256, dtype=np.float64)


def _npz(**arrays) -> bytes:
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    return buf.getvalue()


def _npy(array) -> bytes:
    buf = io.BytesIO()
    np.save(buf, array)
    return buf.getvalue()


def _zip(members: dict) -> bytes:
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as z:
        for name, data in members.items():
            z.writestr(name, data)
    return buf.getvalue()


def _bit_flip(blob: bytes, offset: int) -> bytes:
    return blob[:offset] + bytes([blob[offset] ^ 0xFF]) + blob[offset + 1:]


GOOD = _npz(value=VALUE)

# One file per way a read can fail: numpy raises (EOFError, ValueError,
# BadZipFile), loads a bare array instead of an archive, misses the
# member (KeyError), finds a member that is not an array, or fails the
# member's CRC.
GARBAGE = {
    "empty": b"",
    "text": b"not an npz",
    "bare_npy": _npy(VALUE),
    "zip_magic_only": b"PK\x03\x04",
    "npz_first_half": GOOD[:len(GOOD) // 2],
    "npz_tail_cut": GOOD[:-10],
    "npz_wrong_member": _npz(other=VALUE),
    "zip_non_npy_member": _zip({"value.npy": b"garbage"}),
    "npz_bad_crc": _bit_flip(GOOD, len(GOOD) // 2),
}
BLOBS = pytest.mark.parametrize("blob", list(GARBAGE.values()),
                                ids=list(GARBAGE))


def _disk_total(directory) -> int:
    return sum(p.stat().st_size for p in Path(directory).glob("*.npz"))


def _plant(directory, key, blob: bytes) -> Path:
    path = Path(directory) / spill_file_name(key)
    path.write_bytes(blob)
    return path


def _npz_size(tmp_path) -> int:
    """On-disk size of one spilled VALUE."""
    probe = tmp_path / "probe"
    LRUCache(max_bytes=0, spill_dir=probe).put(("v1", "probe"), VALUE)
    return _disk_total(probe)


class TestGarbageSpillFile:
    @BLOBS
    def test_garbage_is_a_miss_and_dropped(self, tmp_path, blob):
        cache = LRUCache(max_bytes=1 << 20, spill_dir=tmp_path)
        path = _plant(tmp_path, ("v1", "a"), blob)
        assert cache.get(("v1", "a")) is None
        assert not path.exists()
        assert cache.stats.misses == 1
        assert cache.stats.spill_hits == 0

    @BLOBS
    def test_accounting_follows_the_drop(self, tmp_path, blob):
        _plant(tmp_path, ("v1", "a"), blob)
        cache = LRUCache(max_bytes=1 << 20, spill_dir=tmp_path)
        # Adopted at its stat size like any other file ...
        assert cache.stats.spill_bytes == len(blob)
        cache.get(("v1", "a"))
        # ... and deregistered when it is dropped.
        assert cache.stats.spill_bytes == 0 == _disk_total(tmp_path)

    @BLOBS
    def test_recompute_replaces_garbage(self, tmp_path, blob):
        _plant(tmp_path, ("v1", "a"), blob)
        cache = LRUCache(max_bytes=1 << 20, spill_dir=tmp_path)
        assert cache.get(("v1", "a")) is None
        cache.put(("v1", "a"), VALUE)
        assert cache.stats.spill_bytes == _disk_total(tmp_path)
        fresh = LRUCache(max_bytes=1 << 20, spill_dir=tmp_path)
        np.testing.assert_array_equal(fresh.get(("v1", "a")), VALUE)
        assert fresh.stats.spill_hits == 1

    @BLOBS
    def test_budget_holds_around_garbage(self, tmp_path, blob):
        budget = int(2.5 * _npz_size(tmp_path))
        spill = tmp_path / "spill"
        spill.mkdir()
        for i in range(3):
            _plant(spill, ("v1", i), blob)
        # No memory tier: every get reads the disk.
        cache = LRUCache(max_bytes=0, spill_dir=spill, spill_max_bytes=budget)
        assert _disk_total(spill) <= budget
        for i in range(6):
            assert cache.get(("v1", i)) is None
            cache.put(("v1", i), VALUE + i)
            assert _disk_total(spill) <= budget
            assert cache.stats.spill_bytes == _disk_total(spill)
        for i in range(6):
            got = cache.get(("v1", i))
            assert got is None or np.array_equal(got, VALUE + i)
        assert cache.get(("v1", 5)) is not None


TRIPPED = []


def _trip():
    TRIPPED.append(True)
    return VALUE


class _Tripwire:
    """Records any attempt to unpickle it."""

    def __reduce__(self):
        return _trip, ()


def _unpickle(blob: bytes):
    data = np.load(io.BytesIO(blob), allow_pickle=True)
    return data["value"] if isinstance(data, np.lib.npyio.NpzFile) else data


@pytest.mark.parametrize("blob", [
    pickle.dumps(_Tripwire()),
    _npz(value=np.array([_Tripwire()], dtype=object)),
], ids=["pickle", "npz_object_array"])
def test_spill_file_is_never_unpickled(tmp_path, blob):
    TRIPPED.clear()
    _unpickle(blob)
    assert TRIPPED, "the tripwire must fire when unpickled"
    TRIPPED.clear()
    cache = LRUCache(max_bytes=1 << 20, spill_dir=tmp_path)
    path = _plant(tmp_path, ("v1", "a"), blob)
    assert cache.get(("v1", "a")) is None
    assert not TRIPPED
    assert not path.exists()


@pytest.mark.parametrize("seed", SEEDS)
def test_invariants_hold_when_files_tear_between_runs(seed, tmp_path):
    """The random-op machine of ``test_cache_invariants`` with one more
    op: a key's file is overwritten with garbage and the cache restarts
    (a crash or a foreign writer between runs).  A get never serves the
    garbage, and the books match the directory after every op."""
    rng = np.random.default_rng(seed)
    keys = [("v1", i) for i in range(8)]
    blobs = list(GARBAGE.values())
    make = lambda: LRUCache(max_bytes=MEM_BUDGET, spill_dir=tmp_path,
                            spill_max_bytes=SPILL_BUDGET)
    cache = make()
    model: dict[tuple, list[np.ndarray]] = {}
    for step in range(N_OPS):
        ctx = f"seed={seed} step={step}"
        op = rng.choice(["put", "get", "tear"], p=[0.45, 0.45, 0.10])
        key = keys[int(rng.integers(len(keys)))]
        if op == "put":
            value = _value(rng)
            cache.put(key, value)
            model.setdefault(key, []).append(value.copy())
        elif op == "get":
            got = cache.get(key)
            if got is not None:
                assert any(v.dtype == got.dtype and np.array_equal(got, v)
                           for v in model.get(key, [])), ctx
        else:
            _plant(tmp_path, key, blobs[int(rng.integers(len(blobs)))])
            cache = make()
        _check_cache(cache, ctx)


class TestPerInstanceBudget:
    def test_restart_adopts_files_at_stat_size(self, tmp_path):
        (tmp_path / "v0-old.npz").write_bytes(b"x" * 100)
        cache = LRUCache(max_bytes=1 << 20, spill_dir=tmp_path)
        cache.put(("v1", "a"), VALUE)
        fresh = LRUCache(max_bytes=1 << 20, spill_dir=tmp_path)
        assert fresh.stats.spill_bytes == _disk_total(tmp_path)
        assert fresh.stats.spill_bytes == 100 + _npz_size(tmp_path)

    def test_rewrite_refreshes_recency(self, tmp_path):
        budget = int(2.5 * _npz_size(tmp_path))
        spill = tmp_path / "spill"
        cache = LRUCache(max_bytes=1 << 20, spill_dir=spill,
                         spill_max_bytes=budget)
        cache.put(("v1", "a"), VALUE)
        cache.put(("v1", "b"), VALUE + 1)
        cache.put(("v1", "a"), VALUE)          # a use: 'b' is now the LRU
        cache.put(("v1", "c"), VALUE + 2)      # evicts one file: 'b'
        names = {p.name for p in spill.glob("*.npz")}
        assert names == {spill_file_name(("v1", "a")),
                         spill_file_name(("v1", "c"))}
        assert cache.stats.spill_evictions == 1

    def test_sibling_dirs_keep_separate_budgets(self, tmp_path):
        budget = int(2.5 * _npz_size(tmp_path))
        a = LRUCache(max_bytes=0, spill_dir=tmp_path / "shard-00",
                     spill_max_bytes=budget)
        b = LRUCache(max_bytes=0, spill_dir=tmp_path / "shard-01",
                     spill_max_bytes=budget)
        a.put(("v1", "a0"), VALUE)
        a.put(("v1", "a1"), VALUE + 1)
        for i in range(5):
            b.put(("v1", f"b{i}"), VALUE + i)
        # b's writes evicted only b's files.
        assert a.stats.spill_evictions == 0 and b.stats.spill_evictions == 3
        assert len(list((tmp_path / "shard-00").glob("*.npz"))) == 2
        np.testing.assert_array_equal(a.get(("v1", "a0")), VALUE)
        for d in ("shard-00", "shard-01"):
            assert _disk_total(tmp_path / d) <= budget

    def test_restart_in_another_process(self, tmp_path):
        budget = int(4.5 * _npz_size(tmp_path))
        spill = tmp_path / "spill"
        src = str(Path(repro.__file__).resolve().parents[1])
        code = (
            "import sys, numpy as np\n"
            f"sys.path.insert(0, {src!r})\n"
            "from repro.serve import LRUCache\n"
            f"c = LRUCache(max_bytes=1 << 20, spill_dir={str(spill)!r},\n"
            f"             spill_max_bytes={budget})\n"
            "for i in range(7):\n"
            "    c.put(('v1', 'sig', i), np.arange(256, dtype=np.float64) + i)\n"
            "print(c.stats.spill_evictions)\n")
        r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, timeout=120,
                           env={**os.environ, "PYTHONPATH": src})
        assert r.returncode == 0, r.stderr
        assert int(r.stdout.strip()) == 3
        parent = LRUCache(max_bytes=1 << 20, spill_dir=spill,
                          spill_max_bytes=budget)
        assert parent.stats.spill_bytes == _disk_total(spill) <= budget
        np.testing.assert_array_equal(parent.get(("v1", "sig", 6)), VALUE + 6)
        assert parent.get(("v1", "sig", 0)) is None

    def test_racing_writes_of_one_key_count_once(self, tmp_path,
                                                 monkeypatch):
        # Both writers pass the exists() check before either publishes.
        barrier = threading.Barrier(2)
        savez = np.savez

        def savez_together(*args, **kwargs):
            barrier.wait(timeout=30)
            savez(*args, **kwargs)

        monkeypatch.setattr(cache_mod.np, "savez", savez_together)
        cache = LRUCache(max_bytes=0, spill_dir=tmp_path)
        writers = [threading.Thread(target=cache.put,
                                    args=(("v1", "a"), VALUE))
                   for _ in range(2)]
        for t in writers:
            t.start()
        for t in writers:
            t.join()
        assert cache.stats.spill_writes == 2
        assert cache.stats.spill_bytes == _disk_total(tmp_path) > 0
        assert len(list(tmp_path.glob("*.npz"))) == 1

    def test_threads_share_one_budget(self, tmp_path):
        budget = int(3.5 * _npz_size(tmp_path))
        spill = tmp_path / "spill"
        cache = LRUCache(max_bytes=0, spill_dir=spill, spill_max_bytes=budget)
        served = []

        def work(t):
            for i in range(12):
                cache.put(("v1", t, i), VALUE + i)
                got = cache.get(("v1", t, i // 2))
                served.append(got is None or np.array_equal(got, VALUE + i // 2))

        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(served)
        assert cache.stats.spill_bytes == _disk_total(spill) <= budget
        assert cache.stats.spill_evictions == 48 - 3

    def test_crashed_writers_temp_file_is_adopted_and_evicted(self, tmp_path):
        size = _npz_size(tmp_path)
        spill = tmp_path / "spill"
        spill.mkdir()
        tmp = spill / "v1-0123456789abcdef0123.77.88.tmp.npz"
        tmp.write_bytes(GOOD[:-10])
        os.utime(tmp, ns=(0, 0))                # older than any write
        cache = LRUCache(max_bytes=0, spill_dir=spill,
                         spill_max_bytes=int(2.5 * size))
        assert cache.stats.spill_bytes == tmp.stat().st_size
        cache.put(("v1", "a"), VALUE)
        cache.put(("v1", "b"), VALUE + 1)
        assert not tmp.exists()
        assert cache.stats.spill_bytes == _disk_total(spill) == 2 * size

    @pytest.mark.parametrize("memory", [0, 1 << 20], ids=["disk_only", "memory"])
    def test_lost_spill_dir_still_serves(self, tmp_path, memory):
        spill = tmp_path / "spill"
        cache = LRUCache(max_bytes=memory, spill_dir=spill)
        shutil.rmtree(spill)
        stored = cache.put(("v1", "a"), VALUE)
        assert (stored is None) == (memory == 0)
        got = cache.get(("v1", "a"))
        assert (got is None) == (memory == 0)
        assert cache.stats.spill_writes == 0 == cache.stats.spill_bytes
        assert not list(tmp_path.rglob("*.npz"))

    def test_vanished_file_is_a_miss(self, tmp_path):
        cache = LRUCache(max_bytes=0, spill_dir=tmp_path)
        cache.put(("v1", "a"), VALUE)
        (tmp_path / spill_file_name(("v1", "a"))).unlink()
        assert cache.get(("v1", "a")) is None
        assert cache.stats.misses == 1

    def test_prune_drops_torn_files_of_dead_versions(self, tmp_path):
        cache = LRUCache(max_bytes=0, spill_dir=tmp_path)
        _plant(tmp_path, ("v0", "a"), GOOD[:-10])
        cache.put(("v1", "a"), VALUE)
        fresh = LRUCache(max_bytes=0, spill_dir=tmp_path)
        assert fresh.prune_spill(["v1"]) == 1
        assert fresh.stats.spill_bytes == _disk_total(tmp_path)
        np.testing.assert_array_equal(fresh.get(("v1", "a")), VALUE)


class TestFleetSpill:
    def test_repeat_request_served_from_shard_spill(self, tmp_path):
        from repro import MGDiffNet, PoissonProblem2D
        fleet = ShardedFleet(FleetConfig(
            shards=3, replicas=2,
            server=ServerConfig(cache_dir=str(tmp_path),
                                spill_max_bytes=1 << 20, cache_bytes=0)))
        try:
            model = MGDiffNet(ndim=2, base_filters=4, depth=1, rng=0)
            fleet.register_model("m", model, PoissonProblem2D(16))
            om = np.linspace(0.2, 0.8, 4)
            u1 = fleet.predict("m", om)
            u2 = fleet.predict("m", om)     # no memory tier: from disk
            np.testing.assert_array_equal(u1, u2)
            spill_hits = sum(s.server.cache.stats.spill_hits
                             for s in fleet.shards)
        finally:
            fleet.close()
        assert spill_hits >= 1
        # Every file lives in a shard's own subdirectory, one per shard.
        subdirs = sorted(p.name for p in tmp_path.iterdir() if p.is_dir())
        assert subdirs == ["shard-00", "shard-01", "shard-02"]
        assert not list(tmp_path.glob("*.npz"))
        assert list(tmp_path.glob("shard-*/*.npz"))

    def test_restarted_fleet_serves_from_its_shard_dirs(self, tmp_path):
        from repro import MGDiffNet, PoissonProblem2D
        model = MGDiffNet(ndim=2, base_filters=4, depth=1, rng=0)
        om = np.linspace(0.2, 0.8, 4)
        fields, hits = [], []
        for _ in range(2):
            fleet = ShardedFleet(FleetConfig(
                shards=2, replicas=1,
                server=ServerConfig(cache_dir=str(tmp_path), cache_bytes=0)))
            try:
                fleet.register_model("m", model, PoissonProblem2D(16))
                fields.append(fleet.predict("m", om))
                hits.append(sum(s.server.cache.stats.spill_hits
                                for s in fleet.shards))
            finally:
                fleet.close()
        np.testing.assert_array_equal(fields[0], fields[1])
        assert hits == [0, 1]

    def test_prune_reaches_every_shard_dir(self, tmp_path):
        from repro import MGDiffNet, PoissonProblem2D
        fleet = ShardedFleet(FleetConfig(
            shards=2, replicas=2,
            server=ServerConfig(cache_dir=str(tmp_path), cache_bytes=0)))
        try:
            problem = PoissonProblem2D(16)
            fleet.register_model(
                "m", MGDiffNet(ndim=2, base_filters=4, depth=1, rng=0), problem)
            for w in (0.2, 0.4, 0.6):
                fleet.predict("m", np.full(4, w))
            old = sorted(tmp_path.glob("shard-*/*.npz"))
            # A retrained checkpoint under the same name: a new version.
            fleet.register_model(
                "m", MGDiffNet(ndim=2, base_filters=4, depth=1, rng=1), problem)
            fleet.predict("m", np.full(4, 0.2))
            assert fleet.prune_spill() == len(old) > 0
        finally:
            fleet.close()
        assert not any(p.exists() for p in old)
        assert list(tmp_path.glob("shard-*/*.npz"))
