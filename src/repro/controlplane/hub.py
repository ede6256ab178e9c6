"""The subscription hub: bounded fan-out of control-plane events.

One :class:`SubscriptionHub` sits between the producers (the entity
model, which translates simulator log records into typed change events)
and any number of consumers (SSE streams, tests).
Every consumer holds a :class:`Subscription` with

- **topic filters** — dotted prefixes (``entity.host`` matches
  ``entity.host.ws1``); an empty filter set matches everything,
- a **bounded queue** — at most ``limit`` pending events,
- **explicit backpressure** — when the queue is full the *oldest*
  pending event is dropped and the subscription's ``dropped`` counter
  increments; the hub never blocks the simulation and never buffers
  unboundedly on behalf of a slow consumer,
- **coalescing** — events published with ``coalescable=True`` (periodic
  state refreshes: metric samples, entity gauge updates) replace a
  pending event with the same ``(topic, key)`` in place instead of
  queueing behind it, so a slow consumer skips intermediate states of
  the same object rather than replaying them.

Determinism: the hub is wall-clock-free. Event ``seq`` numbers follow
publish order, which producers derive from the kernel's ``(time, seq)``
event order, so two replays of the same simulation publish the identical
event sequence. The hub only ever *reads* simulation state; attaching it
(with any number of subscribers, however slow) cannot change a replay
digest.

Per-subscriber drop/coalesce totals are surfaced as ``controlplane_*``
metrics when the hub is given a registry.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover
    from repro.telemetry.registry import MetricsRegistry


@dataclass(frozen=True, slots=True)
class Event:
    """One control-plane event.

    ``seq`` is the hub-wide publish sequence number (deterministic across
    replays); ``time`` is simulated seconds; ``key`` identifies the
    object within the topic (host name, app id, ...) and is the
    coalescing identity.
    """

    seq: int
    topic: str
    key: str
    time: float
    data: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "seq": self.seq,
            "topic": self.topic,
            "key": self.key,
            "time": self.time,
            "data": self.data,
        }


def topic_matches(topic: str, prefixes: tuple[str, ...]) -> bool:
    """True when *topic* equals a prefix or extends it at a dot boundary
    (``entity.host`` matches ``entity.host`` and ``entity.host.ws1`` but
    not ``entity.hostile``). Empty *prefixes* matches every topic."""
    if not prefixes:
        return True
    for prefix in prefixes:
        if topic == prefix or topic.startswith(prefix + "."):
            return True
    return False


class Subscription:
    """One consumer's bounded view of the hub (see module docstring).

    Counters (``matched``/``delivered``/``dropped``/``coalesced``) obey
    the conservation law ``matched == delivered + pending + dropped +
    coalesced`` at every instant — the backpressure property test holds
    the hub to exactly that.
    """

    def __init__(
        self,
        hub: "SubscriptionHub",
        name: str,
        topics: tuple[str, ...] = (),
        limit: int = 256,
        coalesce: bool = True,
        on_enqueue: Callable[[], None] | None = None,
    ) -> None:
        if limit < 1:
            raise ValueError("subscription limit must be >= 1")
        self.hub = hub
        self.name = name
        self.topics = tuple(topics)
        self.limit = limit
        self.coalesce = coalesce
        #: zero-arg wakeup called on the publisher's side whenever the
        #: queue gains an event — the server points this at an
        #: ``asyncio.Event.set`` so streams sleep without polling
        self.on_enqueue = on_enqueue
        self.matched = 0
        self.delivered = 0
        self.dropped = 0
        self.coalesced = 0
        self.closed = False
        # queue of single-element cells so a coalescing replace is O(1)
        # without disturbing queue order; the index maps the coalescing
        # identity of each *pending coalescable* event to its cell
        self._queue: deque[list[Event]] = deque()
        self._pending_index: dict[tuple[str, str], list[Event]] = {}

    # ------------------------------------------------------------- publisher

    def matches(self, topic: str) -> bool:
        return topic_matches(topic, self.topics)

    def offer(self, event: Event, coalescable: bool) -> None:
        """Enqueue *event* (publisher side; the hub calls this)."""
        if self.closed:
            return
        self.matched += 1
        identity = (event.topic, event.key)
        if coalescable and self.coalesce:
            cell = self._pending_index.get(identity)
            if cell is not None:
                cell[0] = event
                self.coalesced += 1
                self.hub._count_coalesce()
                return
        if len(self._queue) >= self.limit:
            stale = self._queue.popleft()
            self._pending_index.pop((stale[0].topic, stale[0].key), None)
            self.dropped += 1
            self.hub._count_drop(self.name)
        cell = [event]
        self._queue.append(cell)
        if coalescable and self.coalesce:
            self._pending_index[identity] = cell
        if self.on_enqueue is not None:
            self.on_enqueue()

    # -------------------------------------------------------------- consumer

    @property
    def pending(self) -> int:
        return len(self._queue)

    def drain(self, max_items: int | None = None) -> list[Event]:
        """Pop up to *max_items* pending events (all of them by default),
        oldest first."""
        out: list[Event] = []
        while self._queue and (max_items is None or len(out) < max_items):
            cell = self._queue.popleft()
            self._pending_index.pop((cell[0].topic, cell[0].key), None)
            out.append(cell[0])
        self.delivered += len(out)
        return out

    def close(self) -> None:
        """Detach from the hub; pending events are discarded (they count
        as neither delivered nor dropped — the subscriber left)."""
        if not self.closed:
            self.closed = True
            self.hub._detach(self)

    def stats(self) -> dict:
        return {
            "name": self.name,
            "topics": list(self.topics),
            "limit": self.limit,
            "pending": self.pending,
            "matched": self.matched,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "coalesced": self.coalesced,
        }


class SubscriptionHub:
    """Publish/subscribe fan-out with per-subscriber bounded queues.

    Args:
        registry: optional :class:`MetricsRegistry`; when given, the hub
            publishes ``controlplane_events_published_total``,
            ``controlplane_events_dropped_total`` (per subscriber),
            ``controlplane_events_coalesced_total``, and a
            ``controlplane_subscriptions`` gauge.
    """

    def __init__(self, registry: "MetricsRegistry | None" = None) -> None:
        self._subs: list[Subscription] = []
        self._seq = 0
        self.published = 0
        self._m_published = None
        self._m_dropped = None
        self._m_coalesced = None
        self._g_subs = None
        if registry is not None:
            self._m_published = registry.counter(
                "controlplane_events_published_total", "hub events published"
            ).labels()
            self._m_dropped = registry.counter(
                "controlplane_events_dropped_total",
                "events dropped by backpressure",
                labels=("subscriber",),
            )
            self._m_coalesced = registry.counter(
                "controlplane_events_coalesced_total", "events coalesced away"
            ).labels()
            self._g_subs = registry.gauge(
                "controlplane_subscriptions", "live hub subscriptions"
            ).labels()

    # ---------------------------------------------------------- subscriptions

    def subscribe(
        self,
        name: str = "",
        topics: tuple[str, ...] | list[str] = (),
        limit: int = 256,
        coalesce: bool = True,
        on_enqueue: Callable[[], None] | None = None,
    ) -> Subscription:
        sub = Subscription(
            self,
            name or f"sub{len(self._subs)}",
            tuple(topics),
            limit=limit,
            coalesce=coalesce,
            on_enqueue=on_enqueue,
        )
        self._subs.append(sub)
        if self._g_subs is not None:
            self._g_subs.value = len(self._subs)
        return sub

    def _detach(self, sub: Subscription) -> None:
        if sub in self._subs:
            self._subs.remove(sub)
        if self._g_subs is not None:
            self._g_subs.value = len(self._subs)

    @property
    def subscriptions(self) -> tuple[Subscription, ...]:
        return tuple(self._subs)

    # -------------------------------------------------------------- publishing

    def publish(
        self,
        topic: str,
        key: str,
        time: float,
        data: dict | None = None,
        coalescable: bool = False,
    ) -> Event:
        """Fan one event out to every matching subscription. ``seq`` is
        assigned in publish order — deterministic because producers call
        this from inside the kernel's event order."""
        self._seq += 1
        event = Event(self._seq, topic, key, time, data or {})
        self.published += 1
        if self._m_published is not None:
            self._m_published.inc()
        for sub in list(self._subs):
            if sub.matches(topic):
                sub.offer(event, coalescable)
        return event

    def _count_drop(self, subscriber: str) -> None:
        if self._m_dropped is not None:
            self._m_dropped.labels(subscriber).inc()

    def _count_coalesce(self) -> None:
        if self._m_coalesced is not None:
            self._m_coalesced.inc()

    def stats(self) -> dict:
        return {
            "published": self.published,
            "subscriptions": [s.stats() for s in self._subs],
        }
