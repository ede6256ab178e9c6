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
- **Emit cost.** A record is one flat tuple: time, category, source, the
  payload's field names (one interned tuple shared by every record of that
  shape) and the payload's values.  No dict is stored; :attr:`LogRecord.data`
  builds one on read, with the emitter's keys in the emitter's order.  A
  category written on a hot path is a :class:`Category` handle resolved once
  (:meth:`EventLog.category` fixes its field names), and an emit through it
  passes the values positionally, so no payload dict is ever built.  The
  keyword form (``emit(category, source, **data)``) is the generic path: it
  costs one probe of the per-category table plus one probe of the field-name
  cache, and its dict is dropped once its values are copied.
  ``suppress(prefix, ...)`` turns matching categories into a counter
  increment with no record object; an emitter whose payload is expensive to
  build reads its handle's ``stored`` flag first and emits a cheaper one
  while its category is suppressed.  Suppression changes which records
  exist, so never enable it in a run whose replay digest is compared against
  an unsuppressed one.
"""

from __future__ import annotations

import heapq
from array import array
from collections import deque
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, ValuesView

#: every payload shape (field-name tuple) seen so far, so that records of
#: one shape share one tuple: ``_intern(fields, fields)`` is the shared copy
_SHAPES: dict[tuple[str, ...], tuple[str, ...]] = {}
_intern = _SHAPES.setdefault


class LogRecord(tuple):
    """One timestamped event, stored as the flat tuple ``(time, category,
    source, fields, *values)``: two records are built for every application
    message, and one tuple is what an immutable record costs least as.

    Attributes:
        time: simulation time (seconds) at which the event occurred.
        category: dotted event kind, e.g. ``"sched.bid"`` or ``"task.done"``.
        source: name of the emitting component (host, daemon, task id...).
        fields: the payload's keys, in emission order (an interned tuple).
        data: the payload as a fresh dict, built on every read; a reader
            that needs several keys reads it once, or uses :meth:`get`.

    Equality, ``repr`` and pickling treat the payload as a dict, so a record
    equals the one ``LogRecord(time, category, source, data)`` builds from
    the same payload.
    """

    __slots__ = ()

    def __new__(
        cls, time: float, category: str, source: str, data: dict[str, Any] | None = None
    ) -> "LogRecord":
        if not data:
            return tuple.__new__(cls, (time, category, source, ()))
        keys = tuple(data)
        return tuple.__new__(cls, (time, category, source, _intern(keys, keys), *data.values()))

    time = property(itemgetter(0))
    category = property(itemgetter(1))
    source = property(itemgetter(2))
    fields = property(itemgetter(3))

    @property
    def data(self) -> dict[str, Any]:
        return dict(zip(self[3], self[4:]))

    def get(self, key: str, default: Any = None) -> Any:
        fields = self[3]
        return self[4 + fields.index(key)] if key in fields else default

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LogRecord):
            return NotImplemented
        return tuple.__eq__(self, other) or (
            self[:3] == other[:3] and self.data == other.data
        )

    def __ne__(self, other: object) -> bool:
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    # equal records may differ in key order, which a tuple hash cannot follow
    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"LogRecord(time={self[0]!r}, category={self[1]!r}, "
            f"source={self[2]!r}, data={self.data!r})"
        )

    def __reduce__(self) -> tuple[Any, ...]:
        return (LogRecord, (self[0], self[1], self[2], self.data))


_new_record = tuple.__new__


class Category:
    """A handle on one category, and its always-exact state: one table
    probe per keyword emit (none per handle emit) finds the count, the
    first and last record and the positions to append to.

    A handle emit (``sim.emit(handle, source, *values)``) names its
    values by the handle's ``fields``; it may leave out trailing fields (an
    untraced emitter omits the trace ids), and its record then carries only
    the fields it gave.
    """

    __slots__ = ("name", "fields", "shapes", "stored", "count", "first", "last", "positions")

    def __init__(self, name: str, stored: bool) -> None:
        self.name = name
        #: the declared field names (``()`` until a handle declares them)
        self.fields: tuple[str, ...] = ()
        #: ``shapes[n]`` is the interned ``fields[:n]``
        self.shapes: tuple[tuple[str, ...], ...] = ((),)
        #: False while the category is suppressed (counted, never stored)
        self.stored = stored
        self.count = 0
        self.first: LogRecord | None = None
        self.last: LogRecord | None = None
        #: full-mode index: positions of this category in ``_records``
        self.positions = array("q")

    def _declare(self, fields: tuple[str, ...]) -> None:
        if self.fields:
            raise ValueError(
                f"category {self.name!r} has fields {self.fields}, not {fields}"
            )
        self.fields = _intern(fields, fields)
        prefixes = [fields[:n] for n in range(len(fields) + 1)]
        self.shapes = tuple([_intern(prefix, prefix) for prefix in prefixes])


class EventLog:
    """An append-only list of :class:`LogRecord` with query helpers.

    Args:
        capacity: None (default) stores every record; an integer keeps only
            the last *capacity* records (see :meth:`set_bounded`).
    """

    def __init__(self, capacity: int | None = None) -> None:
        self._records: list[LogRecord] = []
        self._ring: deque[LogRecord] | None = None
        # per-category state, exact in every mode, in first-use order
        self._categories: dict[str, Category] = {}
        # category prefixes whose emits are counted but not stored
        self._suppressed: tuple[str, ...] = ()
        # push subscribers, called with each surviving record at emit time
        self._observers: list[Callable[[LogRecord], None]] = []
        if capacity is not None:
            self.set_bounded(capacity)

    # -- writing -----------------------------------------------------------

    def category(self, name: str, fields: Iterable[str] = ()) -> Category:
        """The handle of category *name*, its payload named by *fields*.

        Resolve a handle once, where the emitter is built, and emit through
        it with positional values.  Asking again with the same fields
        returns the same handle; other fields raise ValueError.
        """
        state = self._categories.get(name)
        if state is None:
            suppressed = self._suppressed
            state = self._categories[name] = Category(
                name, not (suppressed and name.startswith(suppressed))
            )
        fields = tuple(fields)
        if fields and fields != state.fields:
            state._declare(fields)
        return state

    def emit(self, time: float, category: str, source: str, **data: Any) -> None:
        """Append a record (kept whole, ring-buffered, or counted-only
        depending on the mode — see module docstring)."""
        self.append(time, category, source, data)

    def append(self, time: float, category: str, source: str, data: dict[str, Any]) -> None:
        """:meth:`emit` for a caller that already holds the payload dict;
        the record copies its keys and values, and keeps no reference to
        the dict."""
        state = self._categories.get(category)
        if state is None:
            state = self.category(category)
        state.count += 1
        if not state.stored:
            return
        if data:
            keys = tuple(data)
            record = _new_record(
                LogRecord, (time, category, source, _intern(keys, keys), *data.values())
            )
        else:
            record = _new_record(LogRecord, (time, category, source, ()))
        # the storage below is write()'s, inlined: a call per record costs more
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

    def write(self, handle: Category, time: float, source: str, values: tuple[Any, ...]) -> None:
        """Append a record of *handle*'s category whose payload is *values*,
        named by the handle's fields (see :class:`Category`)."""
        handle.count += 1
        if not handle.stored:
            return
        record = _new_record(
            LogRecord, (time, handle.name, source, handle.shapes[len(values)]) + values
        )
        if handle.first is None:
            handle.first = record
        handle.last = record
        if self._observers:
            for observer in self._observers:
                observer(record)
        if self._ring is not None:
            if self._ring.maxlen != 0:
                self._ring.append(record)
            return
        handle.positions.append(len(self._records))
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

        Suppressed categories keep exact :meth:`count` totals (one counter
        increment per emit) but produce no records and no first/last — the
        near-zero-cost mode for categories a run does not care about.  Each
        prefix matches as a plain string prefix (``"isis.hb"`` also matches
        ``"isis.hbx"``); pass dotted prefixes like ``"isis."`` to scope to a
        subsystem.
        """
        self._suppressed = suppressed = tuple(dict.fromkeys(self._suppressed + prefixes))
        for name, state in self._categories.items():
            state.stored = not name.startswith(suppressed)

    def unsuppress(self) -> None:
        """Store every category again (counts taken while suppressed remain)."""
        self._suppressed = ()
        for state in self._categories.values():
            state.stored = True

    @property
    def suppressed(self) -> tuple[str, ...]:
        return self._suppressed

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
            state.positions = array("q")

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
        """Exact per-category emission counts for the whole run (a handle
        that has not emitted yet is not listed)."""
        return {cat: state.count for cat, state in self._categories.items() if state.count}

    def categories(self) -> ValuesView[Category]:
        """Every category's state, in first-use order: a live view that
        grows as categories are first used, so a reader that sums counts
        per sample can hold it instead of building
        :meth:`category_counts`."""
        return self._categories.values()

    def clear(self) -> None:
        """Drop every record and count; handles stay valid."""
        self._records.clear()
        for state in self._categories.values():
            state.count = 0
            state.first = state.last = None
            state.positions = array("q")
        if self._ring is not None:
            self._ring.clear()
