"""Wire messages of the group membership protocol.

All are plain frozen dataclasses; the :class:`~repro.isis.member.Membership`
dispatches on type. ``view_id`` fields let receivers discard stale traffic
from superseded views.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isis.views import View
from repro.netsim.host import Address

# -- membership -----------------------------------------------------------


@dataclass(frozen=True, slots=True)
class JoinReq:
    """A process asks to join; sent to a contact member and forwarded to the
    coordinator.  ``epoch`` is the network's disturbance count when it was
    sent (see ``Heartbeat``): one that still stands when the joiner's view
    is installed vouches for the joiner the way a beat does."""

    joiner: Address
    epoch: int = -1


@dataclass(frozen=True, slots=True)
class NewView:
    """Coordinator -> every other member of the view: install it, and answer
    with a ``ViewAck``.  ``park`` is a park order as in ``CoordBeat``, given
    when every joiner's ``JoinReq`` vouched for it in the current disturbance
    epoch and the network is calm for the view (-1: install awake)."""

    view: View
    park: int = -1


@dataclass(frozen=True, slots=True)
class ViewAck:
    """Member -> coordinator: the member installed view ``view_id``.  It
    vouches for its sender as a ``Heartbeat`` does (``epoch`` is the
    disturbance count when it was sent); an ack that has not arrived within
    ``hb_timeout`` makes its member a suspect for the next view."""

    sender: Address
    view_id: int
    epoch: int = -1


# -- failure detection -------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Heartbeat:
    """Member -> coordinator liveness signal.  ``epoch`` is the network's
    disturbance count when the beat was sent: a beat that arrives with no
    edge concerning its sender since (an edge that named it or named
    nobody) tells the coordinator the member has been alive, and in view
    ``view_id``, through an undisturbed interval (see :mod:`repro.isis.member`
    on the parked failure detector)."""

    sender: Address
    view_id: int
    epoch: int = -1


@dataclass(frozen=True, slots=True)
class CoordBeat:
    """Coordinator -> members liveness signal.  ``park`` is the group's park
    order: the network's disturbance count when the coordinator found the
    group steady and the network calm and stopped beating (-1: keep
    beating).  It holds only while no edge that concerns the receiver came
    after that count (an edge that named nobody or named its
    coordinator)."""

    sender: Address
    view_id: int
    park: int = -1


@dataclass(frozen=True, slots=True)
class Evicted:
    """Coordinator -> a process that heartbeats but is not a member: you
    were removed from the group (e.g. on the losing side of a healed
    partition); clear your view and rejoin."""

    group_view_id: int
    coordinator: Address
