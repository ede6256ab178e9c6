"""The trace context carried along an application's causal path.

A :class:`TraceContext` is immutable and cheap: components hand out child
contexts (same trace, new span, parent = their own span) as causality
crosses a boundary — execution program → resource request → bidding round,
application → task instance, and so on. Span ids are drawn from the
simulator's deterministic :class:`~repro.util.ids.IdGenerator`, so two runs
with the same seed mint identical trace/span ids (the deterministic-replay
harness relies on this).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

#: the payload keys a traced record ends with, in :meth:`TraceContext.fields` order
TRACE_FIELDS = ("trace_id", "span_id", "parent_span_id")


@dataclass(frozen=True, slots=True)
class TraceContext:
    """Identity of one span within one trace.

    Attributes:
        trace_id: the whole causal tree (one per application run).
        span_id: this node in the tree.
        parent_span_id: the span that caused this one (None at the root).
    """

    trace_id: str
    span_id: str
    parent_span_id: str | None = None

    def child(self, span_id: str) -> "TraceContext":
        """A new span in the same trace, parented to this one."""
        return TraceContext(self.trace_id, span_id, self.span_id)

    def fields(self) -> dict[str, Any]:
        """The event-log payload keys every traced record carries."""
        out: dict[str, Any] = {"trace_id": self.trace_id, "span_id": self.span_id}
        if self.parent_span_id is not None:
            out["parent_span_id"] = self.parent_span_id
        return out

    def values(self) -> tuple[str, ...]:
        """:meth:`fields`' values, for an emit through a category handle
        whose fields end with :data:`TRACE_FIELDS`."""
        if self.parent_span_id is None:
            return (self.trace_id, self.span_id)
        return (self.trace_id, self.span_id, self.parent_span_id)


def trace_fields(ctx: TraceContext | None) -> dict[str, Any]:
    """``ctx.fields()``, or ``{}`` for untraced flows (e.g. hand-built
    scheduler messages in unit tests)."""
    return ctx.fields() if ctx is not None else {}
