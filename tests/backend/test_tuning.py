"""MeasurementCache: the host-partitioned persistent record table.

The JIT kernel index sits on this class; its contracts are pinned here:
host partitioning, setdefault persistence, restart survival and
read-merge-write saves.
"""

import json

import pytest

from repro.backend.tuning import MeasurementCache, host_fingerprint


@pytest.fixture
def cache(tmp_path):
    return MeasurementCache(tmp_path / "table.json")


class TestHostFingerprint:
    def test_stable_and_short(self):
        assert host_fingerprint() == host_fingerprint()
        assert len(host_fingerprint()) == 12


class TestMeasurementCache:
    def test_setdefault_inserts_and_persists(self, cache, tmp_path):
        rec = cache.setdefault("k", {"winner": "im2col"})
        assert rec == {"winner": "im2col"}
        data = json.loads((tmp_path / "table.json").read_text())
        assert data["hosts"][host_fingerprint()]["k"] == {"winner": "im2col"}

    def test_setdefault_keeps_existing(self, cache):
        cache.setdefault("k", {"winner": "a"})
        assert cache.setdefault("k", {"winner": "b"}) == {"winner": "a"}

    def test_survives_restart(self, cache):
        cache.setdefault("k", {"winner": "a"})
        cache.clear(memory_only=True)          # simulated process restart
        assert cache.get("k") == {"winner": "a"}

    def test_clear_removes_file(self, cache, tmp_path):
        cache.setdefault("k", {"winner": "a"})
        cache.clear()
        assert not (tmp_path / "table.json").exists()
        assert cache.get("k") is None

    def test_save_merges_foreign_hosts(self, cache, tmp_path):
        # Another machine's records must survive this host's save.
        (tmp_path / "table.json").write_text(json.dumps(
            {"version": 1, "hosts": {"deadbeef0000": {"x": {"w": 1}}}}))
        cache.setdefault("k", {"winner": "a"})
        data = json.loads((tmp_path / "table.json").read_text())
        assert data["hosts"]["deadbeef0000"] == {"x": {"w": 1}}
        assert data["hosts"][host_fingerprint()]["k"] == {"winner": "a"}

    def test_corrupt_file_treated_as_empty(self, cache, tmp_path):
        (tmp_path / "table.json").write_text("{oops")
        assert cache.get("k") is None
        cache.setdefault("k", {"winner": "a"})
        assert cache.get("k") == {"winner": "a"}

    def test_snapshot_is_a_copy(self, cache):
        cache.setdefault("k", {"winner": "a"})
        snap = cache.snapshot()
        snap["k"]["winner"] = "mutated"
        snap["extra"] = {}
        assert cache.get("k") is not None
        assert cache.get("extra") is None
