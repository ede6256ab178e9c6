"""Process-independent hashing and consistent-hash rings.

Hierarchical group leaders assign bid requests to sub-leader cells by
consistent hash (:mod:`repro.scheduler.hierarchy`), which must stay
reproducible across interpreter runs — that rules out the
per-process-salted builtin ``hash``.

They build a :class:`ConsistentHashRing`: each node contributes
``replicas`` virtual points at ``stable_hash(f"{node}#{replica}")`` and a
key maps to the owner of the first ring point clockwise of
``stable_hash(key)``.  Adding or removing one node therefore only moves
the keys that fall in that node's arcs — the stability property the
scale tests pin down.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Sequence

#: virtual nodes per ring member; enough that member counts in the
#: hundreds spread within a few percent of even
RING_REPLICAS = 64


def stable_hash(key: str) -> int:
    """Process-independent 64-bit hash (``hash()`` is salted per process,
    which would make ring assignment irreproducible)."""
    return int.from_bytes(hashlib.md5(key.encode()).digest()[:8], "big")


class ConsistentHashRing:
    """A consistent-hash ring over named nodes.

    Args:
        nodes: ring member names (order-insensitive; duplicate names
            collapse to one member).
        replicas: virtual points per member.
    """

    def __init__(self, nodes: Sequence[str], replicas: int = RING_REPLICAS) -> None:
        if not nodes:
            raise ValueError("a consistent-hash ring needs at least one node")
        points = sorted(
            (stable_hash(f"{node}#{replica}"), node)
            for node in dict.fromkeys(nodes)
            for replica in range(replicas)
        )
        self._keys = [point for point, _ in points]
        self._nodes = [node for _, node in points]

    def lookup(self, key: str) -> str:
        """The node owning *key* (first ring point clockwise of its hash)."""
        i = bisect.bisect(self._keys, stable_hash(key)) % len(self._keys)
        return self._nodes[i]
