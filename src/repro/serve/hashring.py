"""Consistent-hash ring: deterministic key -> replica-set routing.

The sharded serving fleet spreads registry entries and request load
across shards by hashing the routing key — ``(model name, content
version)`` — onto a ring of virtual nodes.  Consistent hashing is the
right discipline for a fleet that can lose a member for good (a shard
decommissioned after repeated failed probes): when one of N shards
leaves, only the ~K/N keys it owned move, instead of the wholesale
reshuffle a modular hash would cause.  (An ejected shard stays on the
ring — reads fail over past it along the replica order.)

Two properties the routing layer depends on (pinned by
``tests/properties/test_hash_ring.py``):

* **Determinism** — points come from SHA-1 of the node/key bytes, never
  from Python's seeded ``hash()``, so every process (and every worker in
  a simulated multi-host fleet) computes the identical ring regardless
  of ``PYTHONHASHSEED``, and construction order does not matter.
* **Replica distinctness** — ``lookup(key, n)`` walks the ring clockwise
  collecting *distinct* nodes, so an R-way replica set never places two
  copies on one shard.

Virtual nodes (``vnodes`` points per shard) smooth the load: with v
points per node the per-node load share concentrates around 1/N with
relative spread ~1/sqrt(v).
"""

from __future__ import annotations

import bisect
import hashlib

__all__ = ["HashRing"]


class HashRing:
    """Consistent-hash ring over named nodes with virtual points.

    Keys may be ``bytes``, ``str`` or any tuple of primitives (hashed
    via their stable ``repr``).  ``lookup(key, n)`` returns the first
    ``min(n, len(nodes))`` distinct nodes clockwise from the key's
    point — index 0 is the primary, the rest are its replicas in
    failover order.
    """

    def __init__(self, nodes=(), *, vnodes: int = 64) -> None:
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.vnodes = int(vnodes)
        self._nodes: set[str] = set()
        # Parallel sorted arrays: point hashes and the node owning each.
        self._points: list[int] = []
        self._owners: list[str] = []
        for node in nodes:
            self.add(node)

    # ------------------------------------------------------------------ #
    @staticmethod
    def _hash(data: bytes) -> int:
        """64-bit point from SHA-1 (stable across processes/platforms)."""
        return int.from_bytes(hashlib.sha1(data).digest()[:8], "big")

    @staticmethod
    def _key_bytes(key) -> bytes:
        if isinstance(key, bytes):
            return key
        if isinstance(key, str):
            return key.encode()
        # repr of primitive tuples is stable (shortest-round-trip floats).
        return repr(key).encode()

    # ------------------------------------------------------------------ #
    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    def add(self, node: str) -> None:
        """Add a node (idempotent); inserts ``vnodes`` ring points."""
        if node in self._nodes:
            return
        self._nodes.add(node)
        for i in range(self.vnodes):
            point = self._hash(f"{node}#{i}".encode())
            # Tie on a point value is astronomically unlikely but must
            # still be deterministic: order equal points by node name.
            idx = bisect.bisect_left(self._points, point)
            while (idx < len(self._points) and self._points[idx] == point
                   and self._owners[idx] < node):
                idx += 1
            self._points.insert(idx, point)
            self._owners.insert(idx, node)

    def lookup(self, key, n: int = 1) -> list[str]:
        """The ``min(n, len(self))`` distinct nodes owning ``key``.

        The first entry is the primary; the rest follow clockwise and
        serve as the failover order for R-way replication.
        """
        if n < 1:
            raise ValueError("n must be >= 1")
        if not self._nodes:
            raise ValueError("lookup on an empty ring")
        h = self._hash(self._key_bytes(key))
        start = bisect.bisect_right(self._points, h)
        want = min(n, len(self._nodes))
        found: list[str] = []
        for i in range(len(self._points)):
            owner = self._owners[(start + i) % len(self._points)]
            if owner not in found:
                found.append(owner)
                if len(found) == want:
                    break
        return found

    def __repr__(self) -> str:
        return (f"HashRing(nodes={len(self._nodes)}, "
                f"vnodes={self.vnodes}, points={len(self._points)})")
