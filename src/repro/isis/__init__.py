"""A from-scratch Isis-style process-group toolkit.

The paper's prototype scheduler/dispatcher "has been constructed using the
Isis Distributed Toolkit" and relies on three Isis facilities:

1. **Process groups** with dynamic membership ("machines can enter or leave
   the group at any time").
2. **bcast / reply** (the group leader broadcasts a request and gathers
   bids).
3. **Error notification**, used so "the oldest surviving member of the group
   [can] assume the role of group leader in case the group leader fails".

This package implements the first and the third over the ``repro.netsim``
kernel.  The second is the scheduler's own fan-out of point-to-point probes
and replies to the members of the current view
(:mod:`repro.scheduler.daemon`); no Isis multicast primitive is used.

- :class:`View` — a numbered membership snapshot ordered by seniority; the
  coordinator (group leader) is the oldest member.
- :class:`Membership` — the component a process owns to be a group member:
  heartbeat failure detection and coordinator-driven one-round view changes.

Simplification relative to full Isis (documented in DESIGN.md):
concurrent-partition (split-brain) membership is resolved only when the
partition heals — adequate for the crash/recovery experiments the paper's
prototype targets.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "views": ("View",),
    "member": ("IsisConfig", "Membership"),
})
