"""Wire messages between execution programs and scheduler daemons."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.machines.archclass import MachineClass
from repro.netsim.host import Address
from repro.trace.context import TraceContext


@dataclass(frozen=True, slots=True)
class ModuleNeed:
    """One module's resource needs within a request (one script directive).

    ``min_instances``/``max_instances`` encode the paper's planned
    vocabulary: ``ASYNC 2`` → (2, 2); ``ASYNC 5-`` → (1, 5);
    ``SYNC 5,10`` → (5, 10).
    """

    task: str
    min_instances: int = 1
    max_instances: int = 1
    requirements: dict[str, Any] = field(default_factory=dict)
    priority: float = 0.0


@dataclass(frozen=True, slots=True)
class ResourceRequest:
    """Execution program → group leader: "a list of the resources required
    from each group for a given VCE application"."""

    req_id: str
    app: str
    machine_class: MachineClass
    modules: tuple[ModuleNeed, ...]
    reply_to: Address
    priority: float = 0.0
    queue_if_insufficient: bool = False
    #: causal context of the requesting execution program's allocation span;
    #: the leader parents its bidding-round span under it (None when the
    #: request was built outside a traced flow).
    trace: TraceContext | None = None
    #: when the execution program issued the request: a queued request
    #: ages from here (§4.3), at whichever leader holds it
    issued_at: float = 0.0

    @property
    def total_min(self) -> int:
        return sum(m.min_instances for m in self.modules)


@dataclass(frozen=True, slots=True)
class MachineBid:
    """A daemon's bid: "Each bid includes the current load of the bidding
    machine"."""

    machine: str
    daemon: Address
    load: float
    speed: float
    arch_class: MachineClass
    free_memory_mb: int = 0
    site: str = ""


@dataclass(frozen=True, slots=True)
class AllocationReply:
    """Leader → execution program: the sorted bids of the least-loaded
    processors available for remote execution."""

    req_id: str
    bids: tuple[MachineBid, ...]


@dataclass(frozen=True, slots=True)
class AllocationError_:
    """Leader → execution program: insufficient resources in this group.

    (Trailing underscore avoids clashing with the exception
    :class:`repro.util.errors.AllocationError`.)
    """

    req_id: str
    requested: int
    available: int
    queued: bool = False


@dataclass(frozen=True, slots=True)
class Allocation:
    """The execution program's final (task, rank) → machine assignment for
    one group, derived from the bids by a placement policy."""

    app: str
    assignments: tuple[tuple[str, int, str], ...]  # (task, rank, machine)


@dataclass(frozen=True, slots=True)
class TerminateNotice:
    """Network supervisor → every daemon (:mod:`repro.netexec`): the
    application is finished, so cancel whatever of it still runs there.
    The simulator sends none: a daemon there reads its load from its own
    host's process table, which an instance leaves when it exits."""

    app: str


@dataclass(frozen=True, slots=True)
class DelegateRequest:
    """Root leader → sub-leader: poll your cell for bids on this request
    (hierarchical bidding, ``DaemonConfig.leader_fanout > 1``).

    The root freezes the cell's member list at delegation time so a view
    change mid-round cannot split the two ends' idea of the cell.
    """

    request: ResourceRequest
    cell: int
    members: tuple[Address, ...]
    root: Address


@dataclass(frozen=True, slots=True)
class DiscloseProbe:
    """Sub-leader → cell member: the direct (point-to-point) equivalent of
    the flat leader's state-disclosure broadcast — the hierarchy exists so
    this fan-out covers one cell, not the whole group."""

    req_id: str
    reply_to: Address


@dataclass(frozen=True, slots=True)
class ProbeReply:
    """Cell member → sub-leader: a bid, or a decline (``bid=None``)."""

    req_id: str
    bid: MachineBid | None


@dataclass(frozen=True, slots=True)
class CellBids:
    """Sub-leader → root leader: one cell's collected bids plus the
    aggregate the root caches for escalation ordering."""

    req_id: str
    cell: int
    bids: tuple[MachineBid, ...]
    polled: int

    @property
    def mean_load(self) -> float:
        """Average bid load — the cached per-cell aggregate the root uses
        to order escalation; a cell with no bids reports saturated."""
        if not self.bids:
            return 1e9
        return sum(b.load for b in self.bids) / len(self.bids)


@dataclass(frozen=True, slots=True)
class SetPriority:
    """Authorized user → group leader: change a queued request's base
    priority ("authorized users will be able to modify the priorities of
    particular applications", §4.3). Applied if the request is still
    queued; the leader then forwards it to the request's ``reply_to``, so
    the execution program re-sends the new priority after a leader change."""

    req_id: str
    priority: float
