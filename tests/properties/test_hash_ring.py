"""Consistent-hash ring invariants (hypothesis-driven).

The fleet's routing correctness rests on four properties of
:class:`repro.serve.HashRing`:

* **balance** — with v virtual nodes per shard the key load spreads
  within a bounded factor of the mean (empirically max/mean < 1.3 at
  v=128; gated loosely at 1.8 / 0.4 so the test pins the mechanism,
  not the noise);
* **minimal disruption** — adding a shard moves only keys *onto* the
  new shard (~K/(N+1) of them); a ring rebuilt without one (what
  ``ShardedFleet.decommission_shard`` builds) moves only the keys it
  owned.  No third shard's assignment ever changes;
* **replica distinctness** — ``lookup(key, n)`` never places two
  replicas on one shard and returns exactly ``min(n, len(nodes))``;
* **process determinism** — ring points come from SHA-1, not Python's
  seeded ``hash()``, so two interpreters with different
  ``PYTHONHASHSEED`` (two "hosts" of the simulated fleet) compute
  identical routes.  Construction order must not matter either.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import HashRing

VNODES = 128


def _nodes(trial: int, n: int) -> list[str]:
    return [f"node-{trial}-{i}" for i in range(n)]


def _keys(trial: int, count: int) -> list[str]:
    return [f"key-{trial}-{j}" for j in range(count)]


class TestLookupContract:
    @given(n_nodes=st.integers(1, 10), n=st.integers(1, 6),
           key=st.text(min_size=0, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_replicas_distinct_and_sized(self, n_nodes, n, key):
        ring = HashRing(_nodes(0, n_nodes), vnodes=16)
        replicas = ring.lookup(key, n=n)
        assert len(replicas) == min(n, n_nodes)
        assert len(set(replicas)) == len(replicas)
        assert all(r in ring for r in replicas)

    def test_empty_ring_rejects_lookup(self):
        with pytest.raises(ValueError):
            HashRing().lookup("k")

    def test_bad_n_rejected(self):
        with pytest.raises(ValueError):
            HashRing(["a"]).lookup("k", n=0)

    @given(trial=st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_construction_order_irrelevant(self, trial):
        nodes = _nodes(trial, 5)
        shuffled = list(nodes)
        random.Random(trial).shuffle(shuffled)
        a, b = HashRing(nodes, vnodes=32), HashRing(shuffled, vnodes=32)
        for key in _keys(trial, 50):
            assert a.lookup(key, n=3) == b.lookup(key, n=3)

    @given(trial=st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_lookup_is_pure(self, trial):
        """Repeated lookups never mutate the ring (replica sets are
        deterministic within one process too)."""
        ring = HashRing(_nodes(trial, 4), vnodes=32)
        keys = _keys(trial, 25)
        first = [ring.lookup(k, n=2) for k in keys]
        assert [ring.lookup(k, n=2) for k in keys] == first


class TestBalance:
    @given(trial=st.integers(0, 10_000), n_nodes=st.integers(2, 8))
    @settings(max_examples=25, deadline=None)
    def test_primary_load_bounded(self, trial, n_nodes):
        nodes = _nodes(trial, n_nodes)
        ring = HashRing(nodes, vnodes=VNODES)
        keys = _keys(trial, 250 * n_nodes)
        loads = Counter(ring.lookup(key)[0] for key in keys)
        mean = len(keys) / n_nodes
        assert max(loads.values()) <= 1.8 * mean
        assert min(loads.get(node, 0) for node in nodes) >= 0.4 * mean


class TestMinimalDisruption:
    @given(trial=st.integers(0, 10_000), n_nodes=st.integers(2, 8))
    @settings(max_examples=25, deadline=None)
    def test_add_moves_only_onto_new_node(self, trial, n_nodes):
        ring = HashRing(_nodes(trial, n_nodes), vnodes=VNODES)
        keys = _keys(trial, 200 * n_nodes)
        before = {key: ring.lookup(key)[0] for key in keys}
        new = f"node-{trial}-new"
        ring.add(new)
        moved = 0
        for key in keys:
            owner = ring.lookup(key)[0]
            if owner != before[key]:
                moved += 1
                # The consistent-hashing contract: a changed assignment
                # can only point at the addition.
                assert owner == new
        expected = len(keys) / (n_nodes + 1)
        assert moved <= 2.0 * expected + 5

    @given(trial=st.integers(0, 10_000), n_nodes=st.integers(3, 8))
    @settings(max_examples=25, deadline=None)
    def test_remove_moves_only_orphaned_keys(self, trial, n_nodes):
        nodes = _nodes(trial, n_nodes)
        ring = HashRing(nodes, vnodes=VNODES)
        keys = _keys(trial, 200 * n_nodes)
        before = {key: ring.lookup(key)[0] for key in keys}
        victim = nodes[trial % n_nodes]
        ring = HashRing([n for n in nodes if n != victim], vnodes=VNODES)
        for key in keys:
            if before[key] != victim:
                assert ring.lookup(key)[0] == before[key]
            else:
                assert ring.lookup(key)[0] != victim


_SUBPROCESS_SNIPPET = """
import json, sys
from repro.serve import HashRing
ring = HashRing([f"shard-{i:02d}" for i in range(5)], vnodes=64)
routes = {key: ring.lookup((key, "deadbeef"), n=3)
           for key in [f"model-{j}" for j in range(40)]}
print(json.dumps(routes, sort_keys=True))
"""


class TestProcessDeterminism:
    def _routes_with_hashseed(self, seed: str) -> dict:
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = seed
        env["PYTHONPATH"] = f"{src}{os.pathsep}" + env.get("PYTHONPATH", "")
        out = subprocess.run(
            [sys.executable, "-c", _SUBPROCESS_SNIPPET], env=env,
            capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        return json.loads(out.stdout)

    def test_routes_identical_across_hash_seeds(self):
        """Two interpreters with different PYTHONHASHSEED — two 'hosts'
        of a simulated fleet — must agree on every replica set."""
        a = self._routes_with_hashseed("0")
        b = self._routes_with_hashseed("4242")
        assert a == b
        # And both agree with this process.
        ring = HashRing([f"shard-{i:02d}" for i in range(5)], vnodes=64)
        for key, replicas in a.items():
            assert ring.lookup((key, "deadbeef"), n=3) == replicas
