"""The health watchdog: rules over sampled telemetry.

Evaluated once per sample, each rule inspects live state (never the
event log) and raises a :class:`HealthEvent` when its condition holds.
Events are edge-triggered — one ``health.<rule>`` record when a condition
becomes active, one ``health.cleared`` when it goes away — so a stuck
cluster does not flood the log at every sample.

The sampler does not sample a grid point at which nothing can have
changed, so every rule also answers *when* its verdict can next change
with no event in between (an elapsed-time threshold crossed, a window
sliding past a point): :attr:`HealthWatchdog.next_deadline` is the
earliest such time, and the sampler takes its next sample no later than
the first grid point at or after it. Windows are in simulated time —
``ticks x interval`` — over the sample-and-hold series, which is what
"the last N samples" meant when every grid point was sampled.

Rules:

- **straggler** — a dispatched instance has been in flight more than
  ``straggler_factor`` x the (histogram-estimated) median duration of
  completed instances of the same task.
- **queue_saturation** — a daemon's pending-request queue has held
  ``queue_depth_threshold`` or more entries at ``queue_depth_ticks``
  consecutive grid points.
- **bid_starvation** — a queued request has been waiting longer than
  :data:`STARVATION_WAIT` seconds without winning an allocation.
- **alloc_errors** — ``sched_alloc_errors_total`` grew by at least
  ``alloc_error_threshold`` over the last ``alloc_error_window`` grid
  intervals.
- **host_down** — a daemon machine is down (crashed and not yet
  recovered by the chaos controller).
- **stranded** — an instance failed but its application is still running:
  the failover layer absorbed the crash and its re-dispatch is pending.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.telemetry.series import GRID_TOLERANCE

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.manager import RuntimeManager
    from repro.scheduler.daemon import SchedulerDaemon
    from repro.telemetry.registry import Histogram, MetricsRegistry
    from repro.telemetry.series import RingSeries, SeriesStore

INFO = "info"
WARNING = "warning"
CRITICAL = "critical"

#: every rule the watchdog evaluates, in evaluation order — the canonical
#: key set of the ``rules`` map in :meth:`HealthWatchdog.snapshot`
RULES = (
    "straggler",
    "queue_saturation",
    "bid_starvation",
    "alloc_errors",
    "host_down",
    "stranded",
)

#: seconds a queued request waits before it counts as starved
STARVATION_WAIT = 30.0

#: signature of the event sink: (category, severity, detail-fields)
EmitFn = Callable[..., None]


@dataclass
class WatchdogConfig:
    """Rule thresholds (see module docstring)."""

    straggler_factor: float = 3.0
    straggler_min_completed: int = 3
    straggler_min_elapsed: float = 1.0
    queue_depth_threshold: int = 4
    queue_depth_ticks: int = 3
    alloc_error_window: int = 10
    alloc_error_threshold: int = 5


@dataclass(frozen=True, slots=True)
class HealthEvent:
    """One raised (or cleared) condition."""

    time: float
    rule: str
    key: str
    severity: str
    detail: dict = field(default_factory=dict)


def straggler_severity(
    elapsed: float, completed: "Histogram", config: WatchdogConfig
) -> str | None:
    """The straggler verdict for one in-flight instance, given the
    completed-duration histogram of its task. Pure — property-tested
    directly: on a uniform workload (all durations within the histogram's
    bucket growth factor of each other) it never fires, because an
    in-flight instance cannot outlive ``factor x`` the estimated median
    while its siblings finish on time."""
    if completed.count < config.straggler_min_completed:
        return None
    if elapsed < config.straggler_min_elapsed:
        return None
    median = completed.quantile(0.5)
    if median <= 0:
        return None
    if elapsed > 2 * config.straggler_factor * median:
        return CRITICAL
    if elapsed > config.straggler_factor * median:
        return WARNING
    return None


def scan_inflight(apps: dict) -> tuple[int, dict[str, int], list]:
    """One pass over every application's in-flight records: how many
    applications are still running, the live instances per host
    (redundant copies included), and what the straggler rule checks —
    ``(app id, records)`` for each running application with a dispatched,
    live instance. The app maintains its in-flight index exactly, so this
    costs O(live instances), not O(application size)."""
    running = 0
    per_host: dict[str, int] = {}
    count = per_host.get
    dispatched: list = []
    for app in apps.values():
        checked = None if app.status.terminal else []
        for record in app.inflight.values():
            inst = record.instance
            if inst is not None and not inst.state.terminal:
                host = inst.host
                if host is not None:
                    name = host.name
                    per_host[name] = count(name, 0) + 1
                if checked is not None and record.dispatched_at is not None:
                    checked.append(record)
            if record.redundant_copies:
                for inst in record.redundant_copies:
                    if not inst.state.terminal and inst.host is not None:
                        name = inst.host.name
                        per_host[name] = count(name, 0) + 1
        if checked is not None:
            running += 1
            if checked:
                dispatched.append((app.id, checked))
    return running, per_host, dispatched


class HealthWatchdog:
    """See module docstring.

    Args:
        registry: live metrics registry (histograms feed the straggler
            baseline; ``health_events_total`` is incremented per event).
        runtime: runtime manager, or None to skip the straggler rule.
        daemons: host -> scheduler daemon (queue rules), may be empty.
        emit: event sink called as ``emit(category, severity=..., **detail)``
            — the VCE wires this to ``sim.emit(category, "watchdog", ...)``.
        config: rule thresholds.
        interval: simulated seconds per sampler grid point, the unit of the
            tick-count thresholds in *config*.
    """

    def __init__(
        self,
        registry: "MetricsRegistry",
        runtime: "RuntimeManager | None",
        daemons: dict[str, "SchedulerDaemon"],
        emit: EmitFn | None = None,
        config: WatchdogConfig | None = None,
        interval: float = 1.0,
    ) -> None:
        self.registry = registry
        self.runtime = runtime
        self.daemons = daemons
        self.config = config or WatchdogConfig()
        self.interval = interval
        #: earliest time after the last evaluation at which a verdict can
        #: change with no event in between (``math.inf``: only an event can)
        self.next_deadline = math.inf
        self._emit = emit or (lambda category, **data: None)
        self._active: dict[tuple[str, str], HealthEvent] = {}
        self.events: list[HealthEvent] = []
        self.max_events = 200
        self._m_events = registry.counter(
            "health_events_total", "watchdog conditions raised", labels=("rule", "severity")
        )
        self._m_durations = registry.histogram(
            "task_duration_seconds", "dispatch to exit", labels=("task",)
        )
        # host names in evaluation order; the daemons themselves are read
        # through the (shared) dict, where a chaos restart replaces them
        self._hosts = sorted(self.daemons)
        self._store: "SeriesStore | None" = None
        self._depth_series: dict[str, "RingSeries"] = {}
        self._alloc_series: "RingSeries | None" = None
        self._slack = interval * GRID_TOLERANCE

    # ------------------------------------------------------------- evaluation

    def evaluate(
        self, now: float, store: "SeriesStore", dispatched: list | None = None
    ) -> list[HealthEvent]:
        """Run every rule over the sample just taken at *now*; returns the
        events newly raised and leaves :attr:`next_deadline` set.

        *dispatched* is the straggler rule's input, the third value of
        :func:`scan_inflight`; a sampler that has just made that pass
        hands it over so the in-flight records are walked once per sample.
        """
        if dispatched is None:
            dispatched = [] if self.runtime is None else scan_inflight(self.runtime.apps)[2]
        seen: set[tuple[str, str]] = set()
        raised: list[HealthEvent] = []
        self.next_deadline = math.inf
        if len(self._hosts) != len(self.daemons):
            self._hosts = sorted(self.daemons)
        if store is not self._store:
            self._store = store
            self._depth_series.clear()
            self._alloc_series = store.series("sched_alloc_errors_total", "")

        for rule, key, severity, detail in self._conditions(now, store, dispatched):
            seen.add((rule, key))
            if (rule, key) in self._active:
                continue
            event = HealthEvent(now, rule, key, severity, detail)
            self._active[(rule, key)] = event
            raised.append(event)
            self._record(event)
            self._emit(f"health.{rule}", severity=severity, key=key, **detail)

        # every key seen is active, so equal sizes mean nothing went away
        gone = (
            [k for k in self._active if k not in seen]
            if len(seen) != len(self._active)
            else ()
        )
        for rule, key in gone:
            self._active.pop((rule, key))
            cleared = HealthEvent(now, "cleared", key, INFO, {"rule": rule})
            self._record(cleared)
            self._emit("health.cleared", severity=INFO, key=key, rule=rule)
        if raised or gone:
            # a health record is itself a change: the log just grew
            self.next_deadline = now
        return raised

    def _due(self, time: float) -> None:
        if time < self.next_deadline:
            self.next_deadline = time

    def _record(self, event: HealthEvent) -> None:
        self.events.append(event)
        if len(self.events) > self.max_events:
            del self.events[: len(self.events) - self.max_events]
        self._m_events.labels(event.rule, event.severity).inc()

    def active(self) -> list[HealthEvent]:
        """Currently-raised conditions, oldest first."""
        return sorted(self._active.values(), key=lambda e: e.time)

    def snapshot(self) -> dict:
        """JSON-able health state: the active conditions plus a per-rule
        summary covering every rule in :data:`RULES` (``host_down`` and
        ``stranded`` included even when quiet).  This is the one schema the
        ``repro top --json`` export and the control-plane dashboard share.
        """
        active = self.active()
        rules: dict[str, dict] = {
            rule: {"active": 0, "severity": None} for rule in RULES
        }
        for event in active:
            state = rules.setdefault(
                event.rule, {"active": 0, "severity": None}
            )
            state["active"] += 1
            if state["severity"] != CRITICAL:
                state["severity"] = (
                    CRITICAL if event.severity == CRITICAL else event.severity
                )
        return {
            "active": [
                {
                    "rule": e.rule,
                    "key": e.key,
                    "severity": e.severity,
                    "time": e.time,
                    "detail": dict(e.detail),
                }
                for e in active
            ],
            "rules": rules,
        }

    # ----------------------------------------------------------------- rules

    def _conditions(self, now: float, store: "SeriesStore", dispatched: list) -> list[tuple]:
        """Every ``(rule, key, severity, detail)`` that holds at *now*."""
        found: list[tuple] = []
        self._check_stragglers(now, dispatched, found)
        self._check_queue_saturation(now, store, found)
        self._check_bid_starvation(now, found)
        self._check_alloc_errors(now, found)
        self._check_hosts_down(found)
        self._check_stranded(found)
        return found

    def _check_stragglers(self, now: float, dispatched: list, found: list) -> None:
        cfg = self.config
        durations = self._m_durations
        active = self._active
        for app_id, records in dispatched:
            for record in records:
                # the child the runtime manager observes this task's exits
                # into, resolved once per record at dispatch
                completed = record.duration
                if completed is None:
                    completed = record.duration = durations.labels(record.task)
                if completed.count < cfg.straggler_min_completed:
                    continue
                median = completed.quantile(0.5)
                if median <= 0:
                    continue
                elapsed = now - record.dispatched_at
                severity = (
                    straggler_severity(elapsed, completed, cfg)
                    if elapsed > cfg.straggler_factor * median
                    else None
                )
                key = f"{app_id}.{record.task}[{record.rank}]"
                if severity is not None:
                    found.append(
                        (
                            "straggler",
                            key,
                            severity,
                            {
                                "app": app_id,
                                "task": record.task,
                                "rank": record.rank,
                                "host": record.host_name,
                                "elapsed": elapsed,
                                "median": median,
                            },
                        )
                    )
                elif ("straggler", key) not in active:
                    self._due(
                        record.dispatched_at
                        + max(cfg.straggler_factor * median, cfg.straggler_min_elapsed)
                    )

    def _check_queue_saturation(self, now: float, store: "SeriesStore", found: list) -> None:
        cfg = self.config
        # saturated at the last `queue_depth_ticks` grid points: at `now`
        # and for the (ticks - 1) intervals before it
        window = (cfg.queue_depth_ticks - 1) * self.interval
        for host_name in self._hosts:
            series = self._depth_series.get(host_name)
            if series is None:
                series = store.series("daemon_queue_depth", host_name)
                self._depth_series[host_name] = series
            # fast path: the latest sample is almost always below threshold
            latest = series.latest()
            if latest is None or latest < cfg.queue_depth_threshold:
                continue
            since = series.held_since(cfg.queue_depth_threshold, now - window)
            if since > now - window + self._slack:
                # raised, if the queue stays this deep, when the window has
                # slid past the last shallower point
                self._due(since + window)
                continue
            severity = (
                CRITICAL if latest >= 2 * cfg.queue_depth_threshold else WARNING
            )
            found.append(
                (
                    "queue_saturation",
                    host_name,
                    severity,
                    {"host": host_name, "depth": latest},
                )
            )

    def _check_bid_starvation(self, now: float, found: list) -> None:
        daemons = self.daemons
        for host_name in self._hosts:
            daemon = daemons[host_name]
            if not daemon.pending_queue or not daemon.membership.is_coordinator:
                continue
            for item in daemon.pending_queue.items():
                waited = now - item.enqueued_at
                if waited > STARVATION_WAIT:
                    found.append(
                        (
                            "bid_starvation",
                            item.request.req_id,
                            WARNING,
                            {
                                "req_id": item.request.req_id,
                                "app": item.request.app,
                                "leader": host_name,
                                "waited": waited,
                                "attempts": item.attempts,
                            },
                        )
                    )
                else:
                    self._due(item.enqueued_at + STARVATION_WAIT)

    def _check_alloc_errors(self, now: float, found: list) -> None:
        cfg = self.config
        series = self._alloc_series
        latest = series.latest()
        if not latest:
            return  # no allocation error so far
        window = cfg.alloc_error_window * self.interval
        start = now - window + self._slack
        base = series.at(start)
        if base is None:
            # the window reaches back before the first sample: no verdict
            # yet, and the moment it is covered needs no event
            first_time, first = next(iter(series))
            if latest - first >= cfg.alloc_error_threshold:
                self._due(first_time + window)
            return
        delta = latest - base
        if delta < cfg.alloc_error_threshold:
            return  # the count is monotone: only a new error can raise this
        # cleared, with no further error, once the window has slid past
        # enough of the errors it holds now
        for time, value in series.window(start):
            if latest - value < cfg.alloc_error_threshold:
                self._due(time + window)
                break
        found.append(
            (
                "alloc_errors",
                "cluster",
                CRITICAL,
                {"errors_in_window": delta, "window_ticks": cfg.alloc_error_window},
            )
        )

    def _check_hosts_down(self, found: list) -> None:
        daemons = self.daemons
        for host_name in self._hosts:
            host = getattr(daemons[host_name], "host", None)
            if host is not None and not host.up:
                found.append(("host_down", host_name, CRITICAL, {"host": host_name}))

    def _check_stranded(self, found: list) -> None:
        if self.runtime is None:
            return
        for app in self.runtime.apps.values():
            if app.status.terminal:
                continue
            # FAILED state on a live app means a failure handler (failover)
            # absorbed the crash and re-dispatch is pending; the app indexes
            # those records so this is O(stranded), not O(records)
            for record in app.failed.values():
                found.append(
                    (
                        "stranded",
                        f"{app.id}.{record.task}[{record.rank}]",
                        WARNING,
                        {
                            "app": app.id,
                            "task": record.task,
                            "rank": record.rank,
                            "host": record.host_name,
                        },
                    )
                )
