"""The leader's pending-request queue with priority aging.

"An additional prioritization scheme will also be needed to prevent
starvation of tasks. That is, as a task waits to be dispatched its priority
will be increased to insure it will eventually be dispatched even if that
results in a globally suboptimal schedule. Authorized users will be able to
modify the priorities of particular applications." (§4.3)

Effective priority = base priority + aging_rate × wait time. The queue pops
in descending effective priority; with ``aging_rate = 0`` this degrades to
strict base-priority order, which is what benchmark E4 contrasts against.

Implementation note: aging raises every queued item's effective priority at
the *same* rate, so the difference between any two items is constant over
time — the serving order is time-invariant.  Each item therefore gets a
static sort key at push time (its effective priority extrapolated back to
t=0, ``priority − aging_rate × enqueued_at``) and the queue is an ordinary
heap over those keys with a dict index: ``push`` / ``__contains__`` /
``remove`` are O(1) dict operations (plus one O(log n) heap push), and
``peek`` / ``pop`` are amortised O(log n) with lazy tombstones.
``reprioritize`` re-keys by pushing a fresh heap entry and letting the stale
one tombstone out.  Tombstones are compacted once they dominate the heap,
so cancel-heavy churn cannot grow it without bound.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover
    from repro.scheduler.messages import ResourceRequest

#: Compact the heap when stale entries outnumber live ones, but never below
#: this floor (tiny heaps are cheaper to pop through than to rebuild).
_COMPACT_MIN = 16


@dataclass
class QueuedRequest:
    request: "ResourceRequest"
    enqueued_at: float
    attempts: int = 0
    #: static heap key (set by AgingQueue; changes only on reprioritize)
    sort_key: float = 0.0

    def effective_priority(self, now: float, aging_rate: float) -> float:
        return self.request.priority + aging_rate * (now - self.enqueued_at)


class AgingQueue:
    """Pending requests, served in aged-priority order (see module note)."""

    def __init__(self, aging_rate: float = 0.1) -> None:
        self._aging_rate = aging_rate
        self._by_id: dict[str, QueuedRequest] = {}  # arrival order preserved
        # heap entries: (-sort_key, enqueued_at, seq, item); an entry is
        # stale when its item was removed or re-keyed since it was pushed
        self._heap: list[tuple[float, float, int, QueuedRequest]] = []
        self._seq = 0
        self._stale = 0
        #: instrumentation for the perf-contract tests: item_visits counts
        #: elements touched by genuinely linear passes (wait_times/items);
        #: index operations (push/contains/remove/peek) must not add to it
        self.stats = {"item_visits": 0, "stale_popped": 0, "compactions": 0}

    # -- configuration -----------------------------------------------------

    @property
    def aging_rate(self) -> float:
        return self._aging_rate

    @aging_rate.setter
    def aging_rate(self, rate: float) -> None:
        if rate == self._aging_rate:
            return
        self._aging_rate = rate
        self._rebuild()

    # -- writing -----------------------------------------------------------

    def _key(self, priority: float, enqueued_at: float) -> float:
        return priority - self._aging_rate * enqueued_at

    def _push_entry(self, item: QueuedRequest) -> None:
        heapq.heappush(
            self._heap, (-item.sort_key, item.enqueued_at, self._seq, item)
        )
        self._seq += 1

    def push(self, request: "ResourceRequest", now: float) -> QueuedRequest:
        """Enqueue (idempotent: re-pushing a queued req_id returns the
        existing item, preserving its age)."""
        existing = self._by_id.get(request.req_id)
        if existing is not None:
            return existing
        item = QueuedRequest(request, now)
        item.sort_key = self._key(request.priority, now)
        self._by_id[request.req_id] = item
        self._push_entry(item)
        return item

    def remove(self, req_id: str) -> bool:
        if self._by_id.pop(req_id, None) is None:
            return False
        self._note_stale()
        return True

    def reprioritize(self, req_id: str, priority: float) -> QueuedRequest | None:
        """Apply a runtime priority change (§4.3) to a queued request.
        Returns the re-keyed item, or None when *req_id* is not queued."""
        item = self._by_id.get(req_id)
        if item is None:
            return None
        item.request = replace(item.request, priority=priority)
        item.sort_key = self._key(priority, item.enqueued_at)
        self._push_entry(item)  # old entry is now stale
        self._note_stale()
        return item

    def clear(self) -> None:
        self._by_id.clear()
        self._heap = []
        self._stale = 0

    def _note_stale(self) -> None:
        self._stale += 1
        if self._stale > _COMPACT_MIN and self._stale * 2 > len(self._heap):
            self._rebuild()

    def _rebuild(self) -> None:
        self._heap = []
        self._seq = 0
        self._stale = 0
        self.stats["compactions"] += 1
        for item in self._by_id.values():
            item.sort_key = self._key(item.request.priority, item.enqueued_at)
            self._push_entry(item)

    # -- reading -----------------------------------------------------------

    def __contains__(self, req_id: str) -> bool:
        return req_id in self._by_id

    def __len__(self) -> int:
        return len(self._by_id)

    def __bool__(self) -> bool:
        return bool(self._by_id)

    def peek(self, now: float) -> QueuedRequest | None:
        """Highest effective priority first; FIFO among equals."""
        heap = self._heap
        by_id = self._by_id
        while heap:
            negkey, _enq, _seq, item = heap[0]
            if by_id.get(item.request.req_id) is item and item.sort_key == -negkey:
                return item
            heapq.heappop(heap)
            self._stale -= 1
            self.stats["stale_popped"] += 1
        return None

    def pop(self, now: float) -> QueuedRequest | None:
        item = self.peek(now)
        if item is not None:
            heapq.heappop(self._heap)
            del self._by_id[item.request.req_id]
        return item

    def items(self) -> list[QueuedRequest]:
        """Queued items in arrival order (an O(n) snapshot, for samplers)."""
        self.stats["item_visits"] += len(self._by_id)
        return list(self._by_id.values())

    def __iter__(self) -> Iterator[QueuedRequest]:
        return iter(self.items())

    def wait_times(self, now: float) -> list[float]:
        self.stats["item_visits"] += len(self._by_id)
        return [now - q.enqueued_at for q in self._by_id.values()]
