"""Rendering for ``repro top`` — a terminal view of live telemetry.

Pure string building over the registry, series store, and watchdog; the
CLI decides when to redraw. Kept free of simulator imports so it can also
render archived snapshots.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.metrics.report import format_table
from repro.telemetry.registry import Histogram

if TYPE_CHECKING:  # pragma: no cover
    from repro.telemetry.registry import MetricsRegistry
    from repro.telemetry.series import SeriesStore
    from repro.telemetry.watchdog import HealthWatchdog

#: counters shown in the one-line totals strip, in display order
_TOTAL_COUNTERS = (
    ("dispatches", "runtime_dispatches_total"),
    ("allocs", "sched_allocs_total"),
    ("alloc_errors", "sched_alloc_errors_total"),
    ("retries", "sched_retries_total"),
    ("migrations", "migrations_total"),
    ("chan msgs", "chan_messages_total"),
    ("faults", "faults_injected_total"),
    ("recoveries", "recovery_actions_total"),
)


#: the observers' own cost, shown as one line, in display order
_SELF_COUNTERS = (
    ("samples", "repro_self_sampler_samples_total"),
    ("idle ticks", "repro_self_sampler_idle_ticks_total"),
    ("keep-alives", "repro_self_sampler_keepalives_total"),
    ("deadline wakes", "repro_self_watchdog_deadline_wakes_total"),
)


def _family_total(registry: "MetricsRegistry", name: str) -> float:
    family = registry.get(name)
    if family is None:
        return 0.0
    return sum(child.value for _, child in family.samples())


def _gauge_value(registry: "MetricsRegistry", name: str, *labels: str) -> float:
    family = registry.get(name)
    if family is None:
        return 0.0
    return family.labels(*labels).value


def render_host_table(
    registry: "MetricsRegistry", store: "SeriesStore", spark_width: int = 12
) -> str:
    """Per-host gauges: load, queue depth, in-flight, load history."""
    hosts = sorted(
        set(store.keys_for("host_load")) | set(store.keys_for("host_inflight_instances"))
    )
    rows = []
    for host in hosts:
        rows.append(
            [
                host,
                f"{_gauge_value(registry, 'host_load', host):.2f}",
                int(_gauge_value(registry, "daemon_queue_depth", host)),
                int(_gauge_value(registry, "host_inflight_instances", host)),
                store.series("host_load", host).spark(spark_width),
            ]
        )
    return format_table(
        ["host", "load", "queue", "inflight", "load history"], rows, title="cluster"
    )


def render_task_quantiles(registry: "MetricsRegistry") -> str:
    """p50/p95/max of completed-instance durations per task."""
    family = registry.get("task_duration_seconds")
    rows = []
    if family is not None:
        for values, child in family.samples():
            if not isinstance(child, Histogram) or child.count == 0:
                continue
            rows.append(
                [
                    values[0] if values else "(all)",
                    child.count,
                    f"{child.quantile(0.5):.4f}",
                    f"{child.quantile(0.95):.4f}",
                    f"{child._max:.4f}",
                ]
            )
    if not rows:
        return ""
    return format_table(
        ["task", "done", "p50 (s)", "p95 (s)", "max (s)"],
        rows,
        title="task durations",
    )


def render_totals(registry: "MetricsRegistry") -> str:
    parts = [
        f"{label}={int(_family_total(registry, name))}"
        for label, name in _TOTAL_COUNTERS
    ]
    net = (
        f"net: {int(_gauge_value(registry, 'net_messages_sent'))} msgs / "
        f"{int(_gauge_value(registry, 'net_bytes_sent')):,} bytes"
    )
    return "totals: " + "  ".join(parts) + "\n" + net


def render_self(registry: "MetricsRegistry") -> str:
    """What watching costs: sampler activity and kernel events per unit of
    useful work (empty when no sampler has published them). The heartbeat
    share, the other self-metric, is in the header."""
    if registry.get(_SELF_COUNTERS[0][1]) is None:
        return ""
    parts = [
        f"{label}={int(_gauge_value(registry, name))}"
        for label, name in _SELF_COUNTERS
    ]
    parts.append(
        f"events/instance={_gauge_value(registry, 'repro_self_events_per_instance'):.1f}"
    )
    return "self: " + "  ".join(parts)


def render_health(watchdog: "HealthWatchdog | None", limit: int = 8) -> str:
    if watchdog is None:
        return ""
    active = watchdog.active()
    if not active:
        return "health: ok"
    lines = ["health:"]
    for event in active[-limit:]:
        lines.append(
            f"  [{event.time:9.2f}s] {event.severity.upper():8s} "
            f"{event.rule} {event.key}"
        )
    if len(active) > limit:
        lines.append(f"  (+{len(active) - limit} more active)")
    return "\n".join(lines)


def render_top(
    registry: "MetricsRegistry",
    store: "SeriesStore",
    watchdog: "HealthWatchdog | None" = None,
    now: float = 0.0,
    title: str = "repro top",
) -> str:
    """One full frame."""
    running = int(_gauge_value(registry, "apps_running"))
    header = (
        f"{title} — t={now:.2f}s  apps running: {running}  "
        f"isis: {int(_gauge_value(registry, 'isis_parked'))} parked / "
        f"{int(_gauge_value(registry, 'isis_awake'))} awake  "
        f"heartbeat share: "
        f"{_gauge_value(registry, 'repro_self_heartbeat_event_share') * 100:.1f}%"
    )
    sections = [
        header,
        render_host_table(registry, store),
        render_task_quantiles(registry),
        render_totals(registry),
        render_self(registry),
        render_health(watchdog),
    ]
    return "\n\n".join(s for s in sections if s)
