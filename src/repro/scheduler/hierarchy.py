"""Hierarchical group leaders: cells, sub-leaders, and request routing.

The paper's one-leader-per-architecture design makes every bidding round a
full-group broadcast: the leader probes each member and collects a reply
from each, O(n) messages per request.  Past a few dozen daemons the leader
becomes the hot spot.  With ``DaemonConfig.leader_fanout > 1`` the group
leader instead partitions its view into *cells* on a consistent-hash ring,
delegates each request to the sub-leader of the cell the request hashes
to, and escalates to further cells — in cached-aggregate-load order — only
while the collected bids are still short of the request's minimum.
Fan-out per round drops from the whole group to ``cells_polled ×
cell_size``; for a fanout of ~log n the common (no-escalation) round is
logarithmic in daemon count.

Everything here is pure data/derivation so the protocol in
:class:`~repro.scheduler.daemon.SchedulerDaemon` stays testable without a
simulator:

- :func:`build_cells` — view members → :class:`CellMap` (deterministic:
  members are hashed by host name onto a ring of cell slots, view order
  breaks nothing because assignment depends only on names).
- :class:`CellMap` — frozen per view; routes ``req_id`` to a primary cell
  and yields the escalation order given the root's cached cell loads.

A fanout of 1 is one cell holding the whole view, which the leader polls
itself: the paper's flat broadcast is the degenerate case of this round,
not a second protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.util.hashing import ConsistentHashRing

if TYPE_CHECKING:  # pragma: no cover
    from repro.netsim.host import Address


@dataclass(frozen=True)
class CellMap:
    """One view's partition into sub-leader cells.

    Attributes:
        cells: cell id → members (view order preserved inside each cell;
            empty cells are dropped, so every listed cell has a sub-leader).
        view_id: the view this partition was derived from.
    """

    cells: tuple[tuple["Address", ...], ...]
    cell_ids: tuple[int, ...]
    view_id: int
    _router: ConsistentHashRing | None  # None: one cell, nothing to route

    def members_of(self, cell: int) -> tuple["Address", ...]:
        return self.cells[self.cell_ids.index(cell)]

    def sub_leader(self, cell: int) -> "Address":
        """First view-order member — the cell's oldest, mirroring the Isis
        convention that the oldest group member coordinates."""
        return self.members_of(cell)[0]

    def route(self, req_id: str) -> int:
        """The primary cell for a request (consistent hash of its id)."""
        if self._router is None:
            return self.cell_ids[0]
        return int(self._router.lookup(req_id).removeprefix("cell-"))

    def escalation_order(self, req_id: str, cell_loads: Mapping[int, float]) -> list[int]:
        """Cells in polling order for one request: the primary first, then
        the rest by cached aggregate load (unknown cells poll before known
        ones — optimism about unexplored capacity), ties by cell id."""
        primary = self.route(req_id)
        rest = [c for c in self.cell_ids if c != primary]
        rest.sort(key=lambda c: (cell_loads.get(c, -1.0), c))
        return [primary, *rest]


# A ring is a pure function of its node names and costs 64 MD5 points per
# node, while a leader re-partitions on every view change: the slot ring
# depends on the fanout alone, the router ring on the occupied cells alone.


@lru_cache(maxsize=16)
def _slot_ring(fanout: int) -> ConsistentHashRing:
    return ConsistentHashRing([f"cell-{i}" for i in range(fanout)])


@lru_cache(maxsize=256)
def _router_ring(cell_ids: tuple[int, ...]) -> ConsistentHashRing:
    return ConsistentHashRing([f"cell-{c}" for c in cell_ids])


def build_cells(
    members: Sequence["Address"], fanout: int, view_id: int = -1
) -> CellMap:
    """Partition *members* (view order) into at most *fanout* cells.

    Members land on cells by consistent hash of their host name, so a
    join/leave only moves that one member; requests later route over the
    ring of *occupied* cells only, so thin views degrade gracefully
    (ultimately to a single cell, behaviorally the flat protocol at
    point-to-point cost).
    """
    if fanout < 1:
        raise ValueError(f"leader_fanout must be >= 1, got {fanout}")
    if not members:
        raise ValueError("cannot build cells from an empty view")
    if fanout == 1:
        return CellMap(cells=(tuple(members),), cell_ids=(0,), view_id=view_id, _router=None)
    slots = _slot_ring(fanout)
    grouped: dict[int, list[Address]] = {}
    for member in members:
        cell = int(slots.lookup(member.host).removeprefix("cell-"))
        grouped.setdefault(cell, []).append(member)
    cell_ids = tuple(sorted(grouped))
    cells = tuple(tuple(grouped[c]) for c in cell_ids)
    return CellMap(cells=cells, cell_ids=cell_ids, view_id=view_id, _router=_router_ring(cell_ids))
