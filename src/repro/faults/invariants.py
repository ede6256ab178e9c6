"""Recovery invariants checked against the event log."""

from __future__ import annotations

from typing import Iterable

from repro.util.eventlog import EventLog


def leadership_transfer_times(log: EventLog, group: str) -> list[float]:
    """Time from each leader-hosting crash to the next takeover event in
    *group* — the paper's error-notification-driven recovery latency."""
    crashes = [r.time for r in log.records(category="fault.crash")]
    takeovers = [
        r for r in log.records(category="isis.takeover") if r.get("group") == group
    ]
    out = []
    for takeover in takeovers:
        prior = [t for t in crashes if t <= takeover.time]
        if prior:
            out.append(takeover.time - max(prior))
    return out


def surviving_leader_is_oldest(view_members_before: Iterable[str], leader_after: str,
                               crashed: set[str]) -> bool:
    """The §5 promise: the oldest *surviving* member leads next."""
    survivors = [m for m in view_members_before if m.split("/")[0] not in crashed]
    return bool(survivors) and survivors[0] == leader_after


def views_converged(members) -> bool:
    """All joined memberships (``Membership``) agree on (view id, members)."""
    live = [m for m in members if m.joined]
    if not live:
        return True
    first = (live[0].view.view_id, live[0].view.members)
    return all((m.view.view_id, m.view.members) == first for m in live)
