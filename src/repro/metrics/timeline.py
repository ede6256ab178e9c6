"""Per-host timelines and an ASCII Gantt renderer.

Turns the event log into a machine-utilization picture: which instance ran
where and when, where hosts were down, where work sat suspended. Useful
for eyeballing scheduler and migration behaviour from a terminal.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.eventlog import EventLog


@dataclass(frozen=True, slots=True)
class Span:
    """One activity interval on one host."""

    host: str
    label: str  # "app.task[rank]" or "DOWN"
    start: float
    end: float
    kind: str  # "task" | "down" | "suspended"


def build_timeline(log: EventLog, horizon: float | None = None) -> list[Span]:
    """Extract all task/down/suspension spans from a run's log."""
    spans: list[Span] = []
    horizon = horizon if horizon is not None else (log.records()[-1].time if len(log) else 0.0)

    open_tasks: dict[tuple, tuple[float, str]] = {}  # key -> (start, host)
    open_downs: dict[str, float] = {}
    open_suspends: dict[tuple, tuple[float, str]] = {}

    for record in log:
        key = (record.get("app"), record.get("task"), record.get("rank"))
        if record.category == "task.start":
            open_tasks[key] = (record.time, record.get("host", "?"))
        elif record.category in ("task.done", "task.failed", "task.killed"):
            if key in open_tasks:
                start, host = open_tasks.pop(key)
                label = f"{key[0]}.{key[1]}[{key[2]}]"
                spans.append(Span(record.get("host", host), label, start, record.time, "task"))
        elif record.category in ("host.crash",):
            open_downs[record.source] = record.time
        elif record.category in ("host.recover",):
            if record.source in open_downs:
                spans.append(
                    Span(record.source, "DOWN", open_downs.pop(record.source), record.time, "down")
                )
        elif record.category == "task.suspend":
            host = record.source.split("/")[0]
            open_suspends[key] = (record.time, host)
        elif record.category == "task.resume":
            if key in open_suspends:
                start, host = open_suspends.pop(key)
                label = f"{key[0]}.{key[1]}[{key[2]}]"
                spans.append(Span(host, label, start, record.time, "suspended"))

    for key, (start, host) in open_tasks.items():
        spans.append(Span(host, f"{key[0]}.{key[1]}[{key[2]}]", start, horizon, "task"))
    for host, start in open_downs.items():
        spans.append(Span(host, "DOWN", start, horizon, "down"))
    return sorted(spans, key=lambda s: (s.host, s.start))


def render_gantt(
    spans: list[Span],
    horizon: float,
    width: int = 72,
    hosts: list[str] | None = None,
) -> str:
    """ASCII Gantt: one row per host; ``#`` running, ``s`` suspended,
    ``x`` down, ``.`` idle."""
    if horizon <= 0:
        return "(empty timeline)"
    if hosts is None:
        hosts = sorted({s.host for s in spans})
    scale = width / horizon
    lines = [f"0{' ' * (width - len(str(round(horizon))) - 1)}{round(horizon)}s"]
    for host in hosts:
        row = ["."] * width
        for span in spans:
            if span.host != host:
                continue
            lo = max(0, min(width - 1, int(span.start * scale)))
            hi = max(lo + 1, min(width, int(span.end * scale)))
            char = {"task": "#", "down": "x", "suspended": "s"}[span.kind]
            for i in range(lo, hi):
                if char == "x" or row[i] == ".":
                    row[i] = char
        lines.append(f"{host:>12} |{''.join(row)}|")
    return "\n".join(lines)

