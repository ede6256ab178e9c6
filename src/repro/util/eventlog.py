"""Structured event log.

Every interesting thing that happens in a simulation — a message send, a bid,
a dispatch, a migration, a crash — is appended here as a :class:`LogRecord`.
The metrics layer (``repro.metrics``) derives utilization, makespan, message
counts, and wait-time statistics purely from this log, which keeps the
instrumented components free of metrics logic.

Two properties matter at scale:

- **Query cost.** ``records(category=...)``, ``count``, ``first``, and
  ``last`` are served from a per-category index maintained on ``emit``, so
  re-deriving metrics on a long run no longer rescans the whole log per
  query. Prefix queries (``"sched."``) merge the per-category position
  lists of the matching categories.
- **Bounded memory.** ``set_bounded(n)`` switches the log to a ring buffer
  of the last *n* records while per-category counters and first/last
  records stay exact for the whole run — throughput benchmarks keep their
  memory flat without blinding the metrics and telemetry layers
  (``n=0`` keeps counters only; the historical ``disable()`` alias has
  been removed).
- **Live observers.** ``add_observer(fn)`` registers a callback invoked
  with every stored-or-ring-buffered record at emit time, in the kernel's
  deterministic event order.  This is the push seam the control plane's
  :class:`~repro.controlplane.SubscriptionHub` taps: observers only read,
  so attaching one never changes what the log stores — replay digests are
  observer-invariant.  Suppressed categories never reach observers (no
  record object exists for them).
- **Emit cost.** A stored record costs one probe of the per-category
  table, one :class:`LogRecord` and one list append; the payload dict the
  emitter built is the record's ``data`` (:meth:`EventLog.append` — nothing
  is copied on the way in).  ``suppress(prefix, ...)`` turns matching
  categories into a counter increment with no record object; an emitter
  whose payload is expensive to build asks :meth:`EventLog.enabled` first
  and emits a cheaper one while its category is suppressed.  Suppression changes
  which records exist, so never enable it in a run whose replay digest is
  compared against an unsuppressed one.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Iterable, Iterator, NamedTuple


class _Fields(NamedTuple):
    time: float
    category: str
    source: str
    data: dict[str, Any]


class LogRecord(_Fields):
    """One timestamped event.  Tuple-backed: two records are built for every
    application message, and a tuple is what an immutable record costs
    least as.

    Attributes:
        time: simulation time (seconds) at which the event occurred.
        category: dotted event kind, e.g. ``"sched.bid"`` or ``"task.done"``.
        source: name of the emitting component (host, daemon, task id...).
        data: free-form payload; keys are event-kind specific.
    """

    __slots__ = ()

    def __new__(
        cls, time: float, category: str, source: str, data: dict[str, Any] | None = None
    ) -> "LogRecord":
        return tuple.__new__(cls, (time, category, source, {} if data is None else data))

    def get(self, key: str, default: Any = None) -> Any:
        return self.data.get(key, default)


_new_record = tuple.__new__


class _Category:
    """Always-exact state of one category: one table probe per emit finds
    the count, the first and last record and the positions to append to."""

    __slots__ = ("count", "first", "last", "positions")

    def __init__(self) -> None:
        self.count = 0
        self.first: LogRecord | None = None
        self.last: LogRecord | None = None
        #: full-mode index: positions of this category in ``_records``
        self.positions: list[int] = []


class EventLog:
    """An append-only list of :class:`LogRecord` with query helpers.

    Args:
        capacity: None (default) stores every record; an integer keeps only
            the last *capacity* records (see :meth:`set_bounded`).
    """

    def __init__(self, capacity: int | None = None) -> None:
        self._records: list[LogRecord] = []
        self._ring: deque[LogRecord] | None = None
        # per-category state, exact in every mode, in first-emit order
        self._categories: dict[str, _Category] = {}
        # category prefixes whose emits are counted but not stored
        self._suppressed: tuple[str, ...] = ()
        # push subscribers, called with each surviving record at emit time
        self._observers: list[Callable[[LogRecord], None]] = []
        if capacity is not None:
            self.set_bounded(capacity)

    # -- writing -----------------------------------------------------------

    def emit(self, time: float, category: str, source: str, **data: Any) -> None:
        """Append a record (kept whole, ring-buffered, or counted-only
        depending on the mode — see module docstring)."""
        self.append(time, category, source, data)

    def append(self, time: float, category: str, source: str, data: dict[str, Any]) -> None:
        """:meth:`emit` for a caller that already owns the payload dict:
        *data* becomes the record's ``data`` as it is, so the caller must
        not keep using it."""
        state = self._categories.get(category)
        if state is None:
            state = self._categories[category] = _Category()
        state.count += 1
        suppressed = self._suppressed
        if suppressed and category.startswith(suppressed):
            return
        # the generated LogRecord.__new__ is a Python frame per record
        record = _new_record(LogRecord, (time, category, source, data))
        if state.first is None:
            state.first = record
        state.last = record
        if self._observers:
            for observer in self._observers:
                observer(record)
        if self._ring is not None:
            if self._ring.maxlen != 0:
                self._ring.append(record)
            return
        state.positions.append(len(self._records))
        self._records.append(record)

    def add_observer(self, observer: Callable[[LogRecord], None]) -> None:
        """Call *observer* with every surviving record at emit time, in
        emission (kernel ``(time, seq)``) order.  Observers see records in
        every storage mode — including a ``set_bounded(0)`` counters-only
        log — but never suppressed categories.  Observers must only read;
        they run inside the hot emit path."""
        if observer not in self._observers:
            self._observers.append(observer)

    def remove_observer(self, observer: Callable[[LogRecord], None]) -> None:
        """Detach *observer* (no-op when it was never attached)."""
        if observer in self._observers:
            self._observers.remove(observer)

    def suppress(self, *prefixes: str) -> None:
        """Stop storing records whose category starts with any of *prefixes*.

        Suppressed categories keep exact :meth:`count` totals (one dict
        increment per emit) but produce no records and no first/last — the
        near-zero-cost mode for categories a run does not care about.  Each
        prefix matches as a plain string prefix (``"isis.hb"`` also matches
        ``"isis.hbx"``); pass dotted prefixes like ``"isis."`` to scope to a
        subsystem.
        """
        self._suppressed = tuple(dict.fromkeys(self._suppressed + prefixes))

    def unsuppress(self) -> None:
        """Store every category again (counts taken while suppressed remain)."""
        self._suppressed = ()

    @property
    def suppressed(self) -> tuple[str, ...]:
        return self._suppressed

    def enabled(self, category: str) -> bool:
        """True when emits for *category* are stored (O(#prefixes))."""
        suppressed = self._suppressed
        return not (suppressed and category.startswith(suppressed))

    def set_bounded(self, capacity: int) -> None:
        """Keep only the last *capacity* records from now on.

        Per-category counts and first/last records remain exact for the
        whole run regardless of capacity (``capacity=0`` keeps counters
        only). Already-stored records seed the ring.
        """
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        existing: Iterable[LogRecord] = (
            self._ring if self._ring is not None else self._records
        )
        self._ring = deque(existing, maxlen=capacity)
        self._records = []
        for state in self._categories.values():
            state.positions = []

    def set_unbounded(self) -> None:
        """Return to storing every record (ring contents are kept and the
        index is rebuilt over them)."""
        if self._ring is None:
            return
        self._records = list(self._ring)
        self._ring = None
        for position, record in enumerate(self._records):
            self._categories[record.category].positions.append(position)

    @property
    def bounded(self) -> bool:
        return self._ring is not None

    @property
    def capacity(self) -> int | None:
        return self._ring.maxlen if self._ring is not None else None

    # -- reading -----------------------------------------------------------

    def _stored(self) -> Iterable[LogRecord]:
        return self._ring if self._ring is not None else self._records

    def __len__(self) -> int:
        return len(self._ring) if self._ring is not None else len(self._records)

    def __iter__(self) -> Iterator[LogRecord]:
        return iter(self._stored())

    def _category_records(self, category: str) -> Iterable[LogRecord]:
        """Stored records matching *category* exactly, or as a prefix when
        it ends with ``"."`` — via the index in full mode."""
        if self._ring is not None:
            if category.endswith("."):
                return (r for r in self._ring if r.category.startswith(category))
            return (r for r in self._ring if r.category == category)
        if category.endswith("."):
            lists = [
                state.positions
                for cat, state in self._categories.items()
                if state.positions and cat.startswith(category)
            ]
            if not lists:
                return ()
            if len(lists) == 1:
                positions: Iterable[int] = lists[0]
            else:
                positions = heapq.merge(*lists)
            return (self._records[i] for i in positions)
        state = self._categories.get(category)
        return (self._records[i] for i in state.positions) if state is not None else ()

    def records(
        self,
        category: str | None = None,
        source: str | None = None,
        predicate: Callable[[LogRecord], bool] | None = None,
        since: float | None = None,
        until: float | None = None,
    ) -> list[LogRecord]:
        """Filtered view of the log.

        ``category`` matches exactly, or as a prefix when it ends with
        ``"."`` (so ``"sched."`` selects every scheduler event). In bounded
        mode only the retained ring is visible.
        """
        out: Iterable[LogRecord]
        if category is not None:
            out = self._category_records(category)
        else:
            out = self._stored()
        if source is not None:
            out = (r for r in out if r.source == source)
        if since is not None:
            out = (r for r in out if r.time >= since)
        if until is not None:
            out = (r for r in out if r.time <= until)
        if predicate is not None:
            out = (r for r in out if predicate(r))
        return list(out)

    def count(self, category: str) -> int:
        """Exact number of records ever emitted for *category* (or prefix),
        including any evicted from a bounded ring."""
        if category.endswith("."):
            return sum(
                state.count
                for cat, state in self._categories.items()
                if cat.startswith(category)
            )
        state = self._categories.get(category)
        return state.count if state is not None else 0

    def first(self, category: str) -> LogRecord | None:
        """First record ever emitted for *category* (exact in every mode).
        Prefix queries pick the earliest first-record among matches."""
        if category.endswith("."):
            matches = [
                state.first
                for cat, state in self._categories.items()
                if state.first is not None and cat.startswith(category)
            ]
            return min(matches, key=lambda r: r.time, default=None)
        state = self._categories.get(category)
        return state.first if state is not None else None

    def last(self, category: str) -> LogRecord | None:
        """Last record ever emitted for *category* (exact in every mode)."""
        if category.endswith("."):
            matches = [
                state.last
                for cat, state in self._categories.items()
                if state.last is not None and cat.startswith(category)
            ]
            return max(matches, key=lambda r: r.time, default=None)
        state = self._categories.get(category)
        return state.last if state is not None else None

    def category_counts(self) -> dict[str, int]:
        """Exact per-category emission counts for the whole run."""
        return {cat: state.count for cat, state in self._categories.items()}

    def clear(self) -> None:
        self._records.clear()
        self._categories.clear()
        if self._ring is not None:
            self._ring.clear()
