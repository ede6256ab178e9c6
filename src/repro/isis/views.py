"""Group views.

A :class:`View` is an immutable, numbered snapshot of group membership.
Members are ordered by *seniority* (join order): the first element is the
oldest member and acts as coordinator/group leader — exactly the paper's
"first instance of the scheduler/dispatcher program to come on-line assumes
the role of group leader ... the oldest surviving member of the group
assume[s] the role ... in case the group leader fails".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.netsim.host import Address


@dataclass(frozen=True, slots=True)
class View:
    """An immutable membership snapshot.

    Attributes:
        view_id: monotonically increasing view number (first view is 1).
        members: addresses ordered oldest-first.

    Membership tests and rank lookups are O(1): views are consulted on every
    heartbeat, ack and bidding round, and a linear ``tuple.index`` showed
    up as a top cost in large-cluster profiles.
    """

    view_id: int
    members: tuple[Address, ...]
    _member_set: frozenset = field(init=False, repr=False, compare=False)
    _ranks: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_member_set", frozenset(self.members))
        object.__setattr__(
            self, "_ranks", {m: i for i, m in enumerate(self.members)}
        )

    @property
    def coordinator(self) -> Address:
        """The group leader: the oldest member."""
        return self.members[0]

    def rank(self, member: Address) -> int:
        """Seniority rank (0 = coordinator). Raises ValueError if absent."""
        rank = self._ranks.get(member)
        if rank is None:
            raise ValueError(f"{member} is not in view {self.view_id}")
        return rank

    def __contains__(self, member: Address) -> bool:
        return member in self._member_set

    @property
    def member_set(self) -> frozenset:
        """Members as a frozenset, for bulk set algebra (no per-call build)."""
        return self._member_set

    def __len__(self) -> int:
        return len(self.members)

    def without(self, *gone: Address) -> tuple[Address, ...]:
        """Membership tuple with *gone* removed, order preserved."""
        return tuple(m for m in self.members if m not in gone)

    def majority(self) -> int:
        """Smallest count that is a strict majority of this view."""
        return len(self.members) // 2 + 1

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        names = ", ".join(str(m) for m in self.members)
        return f"View#{self.view_id}[{names}]"
