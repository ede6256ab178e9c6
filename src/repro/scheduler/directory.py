"""Group-leader directory.

The execution program must know where to send each group's request. In the
Isis prototype this is the toolkit's group-name lookup; here a directory
object records, per machine class, the current leader and membership — the
daemons' view-change callbacks keep it fresh.

A client can also watch the leaders, the way an Isis client watches a
group's views: :meth:`GroupDirectory.watch_leader` registers a callback
``(arch_class, leader)`` that runs whenever a class's leader *changes*. An
execution program with requests outstanding watches, so it can re-send
them to a new leader (the leader's queue is soft state).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.machines.archclass import MachineClass
from repro.netsim.host import Address
from repro.util.errors import AllocationError

LeaderObserver = Callable[[MachineClass, Address], None]


@dataclass
class _GroupEntry:
    leader: Address | None = None
    members: list[Address] = field(default_factory=list)
    view_id: int = 0


class GroupDirectory:
    """Class → (leader, members) lookup."""

    def __init__(self) -> None:
        self._groups: dict[MachineClass, _GroupEntry] = {}
        # insertion-ordered (notification order is part of the schedule);
        # a dict so register and unregister are O(1)
        self._leader_observers: dict[LeaderObserver, None] = {}
        #: called with the host of each member a group coordinator sees leave
        self.host_lost_hooks: list[Callable[[str], None]] = []

    def update(
        self, arch_class: MachineClass, leader: Address, members: list[Address], view_id: int
    ) -> None:
        entry = self._groups.setdefault(arch_class, _GroupEntry())
        if view_id >= entry.view_id:
            changed = entry.leader != leader
            entry.leader = leader
            entry.members = list(members)
            entry.view_id = view_id
            if changed and self._leader_observers:
                for observer in list(self._leader_observers):
                    observer(arch_class, leader)

    def watch_leader(self, observer: LeaderObserver) -> None:
        """Call *observer* ``(arch_class, leader)`` on every leader change
        until :meth:`unwatch_leader` (registering twice is one entry)."""
        self._leader_observers[observer] = None

    def unwatch_leader(self, observer: LeaderObserver) -> None:
        self._leader_observers.pop(observer, None)

    def leader(self, arch_class: MachineClass) -> Address:
        entry = self._groups.get(arch_class)
        if entry is None or entry.leader is None:
            raise AllocationError(f"no {arch_class} group is on line")
        return entry.leader

    def members(self, arch_class: MachineClass) -> list[Address]:
        entry = self._groups.get(arch_class)
        return list(entry.members) if entry else []

    def group_size(self, arch_class: MachineClass) -> int:
        return len(self.members(arch_class))

    def classes(self) -> list[MachineClass]:
        return [c for c, e in self._groups.items() if e.members]

    def has_group(self, arch_class: MachineClass) -> bool:
        entry = self._groups.get(arch_class)
        return entry is not None and entry.leader is not None and bool(entry.members)
