"""Metrics: derived measurements and report formatting.

Everything is computed from the run-wide :class:`~repro.util.eventlog.EventLog`
(plus network counters), so instrumentation lives in one place and any
experiment can be re-analyzed after the fact.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "collector": ("MetricsCollector",),
    "report": ("format_table", "format_series"),
    "timeline": ("Span", "build_timeline", "host_busy_fraction", "render_gantt"),
})
