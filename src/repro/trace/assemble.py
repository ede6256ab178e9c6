"""Rebuild span trees from a trace-tagged event log.

The runtime never materializes span objects while it runs — it only tags
:class:`~repro.util.eventlog.LogRecord` payloads with
``trace_id``/``span_id``/``parent_span_id``. The :class:`TraceAssembler`
is the post-hoc inverse: it pairs span-opening records with their closing
records, attaches annotations (task.start times, suspend windows, channel
hops) to the owning span, and links parents to children.

Span vocabulary (opener → closers):

========  ==================  =============================================
category  opened by           closed by
========  ==================  =============================================
exec      exec.submit         exec.finished / exec.failed
alloc     exec.request        exec.reply
sched     sched.request       sched.alloc / sched.alloc_error
app       app.submit          app.done / app.failed / app.terminate
task      runtime.dispatch    task.done / task.failed / task.killed /
                              task.host_crashed
migration migration.done      (point record: span is [time-latency, time])
========  ==================  =============================================

Any other trace-tagged record (chan.send, chan.recv, task.checkpoint,
task.file_fetch, sched.retry, ...) becomes a timestamped *event* on the
span it names.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.util.eventlog import EventLog


@dataclass
class Span:
    """One node of a trace's span tree."""

    trace_id: str
    span_id: str
    parent_span_id: str | None
    name: str
    category: str
    start: float
    end: float | None = None
    attrs: dict[str, Any] = field(default_factory=dict)
    events: list[tuple[float, str, dict[str, Any]]] = field(default_factory=list)
    children: list["Span"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0

    def tree(self) -> Iterable["Span"]:
        """Depth-first iteration over this span and its descendants."""
        yield self
        for child in self.children:
            yield from child.tree()


@dataclass
class Trace:
    """All spans of one trace_id, linked into a tree."""

    trace_id: str
    spans: dict[str, Span]
    roots: list[Span]

    @property
    def root(self) -> Span:
        return self.roots[0]

    def by_category(self, category: str) -> list[Span]:
        return [s for s in self.spans.values() if s.category == category]

    def app_span(self) -> Span | None:
        apps = self.by_category("app")
        return min(apps, key=lambda s: s.start) if apps else None


#: opener record category → (span category, name builder)
_OPENERS: dict[str, tuple[str, Any]] = {
    "exec.submit": ("exec", lambda r: f"exec:{r.get('app')}"),
    "exec.request": ("alloc", lambda r: f"alloc:{r.get('cls')}"),
    "sched.request": ("sched", lambda r: f"bidding:{r.get('req_id')}"),
    "app.submit": ("app", lambda r: f"app:{r.source}"),
    "runtime.dispatch": (
        "task",
        lambda r: f"{r.get('task')}[{r.get('rank')}]#{r.get('incarnation', 0)}",
    ),
}

_CLOSERS = {
    "exec.finished",
    "exec.failed",
    "exec.reply",
    "sched.alloc",
    "sched.alloc_error",
    "app.done",
    "app.failed",
    "app.terminate",
    "task.done",
    "task.failed",
    "task.killed",
    "task.host_crashed",
}

#: opener payload keys copied onto the span's attrs
_ATTR_KEYS = (
    "app", "cls", "req_id", "task", "rank", "host",
    "stage_in", "binary", "incarnation", "after", "tasks", "needed",
)


class TraceAssembler:
    """Pairs trace-tagged records back into :class:`Trace` objects."""

    def __init__(self, log: EventLog) -> None:
        self.log = log

    def assemble(self) -> list[Trace]:
        """All traces present in the log, roots ordered by start time."""
        spans: dict[tuple[str, str], Span] = {}  # (trace_id, span_id) -> span
        open_suspends: dict[tuple[str, str], float] = {}
        last_time: dict[str, float] = {}

        for record in self.log:
            trace_id = record.get("trace_id")
            span_id = record.get("span_id")
            if trace_id is None or span_id is None:
                continue
            last_time[trace_id] = record.time
            key = (trace_id, span_id)

            if record.category in _OPENERS:
                category, name_of = _OPENERS[record.category]
                span = Span(
                    trace_id=trace_id,
                    span_id=span_id,
                    parent_span_id=record.get("parent_span_id"),
                    name=name_of(record),
                    category=category,
                    start=record.time,
                    attrs={
                        k: record.get(k) for k in _ATTR_KEYS if k in record.fields
                    },
                )
                if category == "app":
                    span.attrs.setdefault("app", record.source)
                spans[key] = span
            elif record.category == "migration.done":
                latency = float(record.get("latency", 0.0))
                spans[key] = Span(
                    trace_id=trace_id,
                    span_id=span_id,
                    parent_span_id=record.get("parent_span_id"),
                    name=f"migrate:{record.source}:{record.get('scheme')}",
                    category="migration",
                    start=record.time - latency,
                    end=record.time,
                    attrs={
                        "scheme": record.get("scheme"),
                        "src": record.get("src"),
                        "dst": record.get("dst"),
                        "task": record.get("task"),
                        "rank": record.get("rank"),
                        "latency": latency,
                    },
                )
            elif record.category in _CLOSERS:
                span = spans.get(key)
                if span is None:
                    # closer without a recorded opener (truncated log):
                    # represent it as a zero-length span so nothing is lost
                    span = Span(
                        trace_id=trace_id,
                        span_id=span_id,
                        parent_span_id=record.get("parent_span_id"),
                        name=record.category,
                        category=record.category.split(".")[0],
                        start=record.time,
                    )
                    spans[key] = span
                span.end = record.time
                span.attrs["outcome"] = record.category
            elif record.category == "task.start":
                span = spans.get(key)
                if span is not None:
                    span.attrs["started"] = record.time
            elif record.category == "task.suspend":
                open_suspends[key] = record.time
            elif record.category == "task.resume":
                span = spans.get(key)
                suspended_at = open_suspends.pop(key, None)
                if span is not None and suspended_at is not None:
                    span.attrs.setdefault("suspends", []).append(
                        (suspended_at, record.time)
                    )
            else:
                span = spans.get(key)
                if span is not None:
                    span.events.append((record.time, record.category, record.data))

        # close dangling suspend windows and open spans at trace end
        for key, suspended_at in open_suspends.items():
            span = spans.get(key)
            if span is not None:
                until = span.end if span.end is not None else last_time[span.trace_id]
                span.attrs.setdefault("suspends", []).append((suspended_at, until))
        for span in spans.values():
            if span.end is None:
                span.end = max(last_time[span.trace_id], span.start)

        return self._link(spans)

    @staticmethod
    def _link(spans: dict[tuple[str, str], Span]) -> list[Trace]:
        by_trace: dict[str, dict[str, Span]] = {}
        for (trace_id, span_id), span in spans.items():
            by_trace.setdefault(trace_id, {})[span_id] = span
        traces = []
        for trace_id, members in by_trace.items():
            roots = []
            for span in members.values():
                parent = (
                    members.get(span.parent_span_id)
                    if span.parent_span_id is not None
                    else None
                )
                if parent is not None and parent is not span:
                    parent.children.append(span)
                else:
                    roots.append(span)
            for span in members.values():
                span.children.sort(key=lambda s: (s.start, s.span_id))
            roots.sort(key=lambda s: (s.start, s.span_id))
            traces.append(Trace(trace_id, members, roots))
        traces.sort(key=lambda t: (t.root.start, t.trace_id))
        return traces


def assemble(log: EventLog) -> list[Trace]:
    """Convenience wrapper: ``TraceAssembler(log).assemble()``."""
    return TraceAssembler(log).assemble()
