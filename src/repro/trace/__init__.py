"""Causal tracing: follow one application through the distributed runtime.

The flat :class:`~repro.util.eventlog.EventLog` answers *what happened*;
this package answers *why it happened when it did*. A
:class:`TraceContext` (trace id + span id + parent span id) is minted when
an application enters the system and propagated through scheduler
messages, daemon bidding rounds, runtime dispatch, task instances,
channel sends, and migrations, so every log record on an application's
causal path carries ``trace_id``/``span_id`` fields.

On top of the tagged log:

- :class:`TraceAssembler` rebuilds the span tree of each trace;
- :func:`critical_path` extracts the longest causal chain submit → done
  and attributes its time to queue-wait / bidding / comms / compute /
  migration;
- :func:`chrome_trace` / :func:`export_chrome_trace` emit Chrome
  trace-event JSON (load in ``chrome://tracing`` or Perfetto);
- :mod:`repro.trace.replay` is a deterministic-replay harness: digest an
  event log (trace ids included) and assert that re-running a scenario
  reproduces it byte for byte.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "assemble": ("Span", "Trace", "TraceAssembler"),
    "context": ("TraceContext", "trace_fields"),
    "critical": ("CriticalPath", "PathSegment", "critical_path"),
    "export": ("chrome_trace", "export_chrome_trace"),
    "replay": ("assert_deterministic", "event_log_digest"),
})
