"""A from-scratch Isis-style virtual-synchrony toolkit.

The paper's prototype scheduler/dispatcher "has been constructed using the
Isis Distributed Toolkit" and relies on four Isis facilities:

1. **Process groups** with dynamic membership ("machines can enter or leave
   the group at any time").
2. **bcast / reply** primitives with reply collection (the group leader
   broadcasts a request and gathers bids).
3. **Error notification**, used so "the oldest surviving member of the group
   [can] assume the role of group leader in case the group leader fails".
4. Causally ordered multicast (Isis cbcast), which bcast/reply rides on.

This package implements those facilities, and only those, over the
``repro.netsim`` kernel:

- :class:`View` — a numbered membership snapshot ordered by seniority; the
  coordinator (group leader) is the oldest member.
- :class:`VectorClock` — causal-delivery bookkeeping for CBCAST.
- :class:`IsisMember` — the actor base class giving subclasses ``cbcast``,
  ``group_request``/``reply`` (Isis bcast-and-collect-replies),
  heartbeat failure detection, and coordinator-driven view changes with a
  flush round that re-multicasts recently delivered messages so that view
  changes approximate view-synchronous delivery.

Simplifications relative to full Isis (documented in DESIGN.md): stability
tracking is replaced by a bounded replay window exchanged during flush, and
concurrent-partition (split-brain) membership is resolved only when the
partition heals — adequate for the crash/recovery experiments the paper's
prototype targets.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "views": ("View",),
    "vclock": ("VectorClock",),
    "member": ("ALL", "MAJORITY", "IsisConfig", "IsisMember"),
})
