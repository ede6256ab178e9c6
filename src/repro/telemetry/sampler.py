"""The cluster sampler: change-driven snapshots of live cluster state.

A :class:`ClusterSampler` is a netsim process (conventionally spawned on
the user's workstation) that reads the cluster on a fixed grid, every
``interval`` simulated seconds. Grid points are read off the clock, not
the event heap: the sampler is the kernel's clock observer
(:meth:`Simulator.observe_grid`), so a grid point is no kernel event and
sees the state after every event before it and before any event at its
own time. Everything it reads is piecewise constant in simulated time and
can change only

(i) when a kernel event runs,
(ii) at a background-load switch time (:meth:`LoadModel.next_change_after`),
(iii) when a watchdog rule's elapsed-time threshold is crossed
     (:attr:`HealthWatchdog.next_deadline`),

so a grid point for which none of the three holds reads nothing, appends
nothing and evaluates nothing: it would have recorded the previous sample
again. A held sample is still taken every :data:`KEEPALIVE_TICKS` grid
points so ring series and sparklines stay continuous. A *sample* reads —
never re-scans the event log — each of these once:

- per-host background load (through each scheduler daemon's
  ``current_load``, the same number bids carry),
- per-daemon pending-queue depth,
- in-flight VCE instances per host, in the same pass that collects the
  dispatched records the watchdog's straggler rule checks,
- the network's cumulative message/byte counters,
- the event log's per-category counts (the scheduling share),
- the simulator's event count (the base of the heartbeat share ``repro
  top`` shows beside the ``isis_parked`` / ``isis_awake`` gauges the group
  members keep themselves; grid points are not in it),

publishes them as gauges in the registry, appends them to bounded
ring-buffer time series, lets the health watchdog evaluate its rules over
the fresh sample, and writes the observers' own cost (``repro_self_*``)
next to the cluster metrics. A grid point never keeps the simulation
alive, so an idle VCE still terminates; the sampler stops observing once
its host is down.
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import TYPE_CHECKING

from repro.netsim.process import SimProcess
from repro.telemetry.series import GRID_TOLERANCE, SeriesStore
from repro.telemetry.watchdog import scan_inflight

if TYPE_CHECKING:  # pragma: no cover
    from repro.netsim.kernel import Simulator
    from repro.runtime.manager import RuntimeManager
    from repro.scheduler.daemon import SchedulerDaemon
    from repro.telemetry.registry import MetricsRegistry
    from repro.telemetry.watchdog import HealthWatchdog

#: a sample is taken at least every this many grid points, changed or not
KEEPALIVE_TICKS = 15

#: the counters whose sum is the kernel events spent on failure detection
HEARTBEAT_COUNTERS = ("isis_hb_ticks_total", "isis_beats_sent_total")

_count = attrgetter("count")
_value = attrgetter("value")


class ClusterSampler(SimProcess):
    """See module docstring.

    Args:
        name: process name (conventionally ``"telemetry"``).
        registry: the live metrics registry to publish gauges into.
        runtime: the runtime manager (in-flight instances, running apps).
        daemons: host name -> scheduler daemon (load and queue depth); read
            through on every sample, so a restarted daemon is picked up.
        interval: simulated seconds between grid points.
        store: ring-buffer series store (one is created if not given).
        watchdog: optional health watchdog evaluated after every sample.
    """

    def __init__(
        self,
        name: str,
        registry: "MetricsRegistry",
        runtime: "RuntimeManager",
        daemons: dict[str, "SchedulerDaemon"],
        interval: float = 4.0,
        store: SeriesStore | None = None,
        watchdog: "HealthWatchdog | None" = None,
    ) -> None:
        super().__init__(name)
        self.registry = registry
        self.runtime = runtime
        self.daemons = daemons
        self.interval = interval
        self.store = store if store is not None else SeriesStore()
        self.watchdog = watchdog
        #: samples taken (grid points that were read and recorded)
        self.ticks = 0
        #: grid points that found nothing changed and returned at once
        self.idle_ticks = 0
        #: samples taken only because KEEPALIVE_TICKS grid points had passed
        self.keepalives = 0
        #: samples taken because a watchdog deadline fell due, no event since
        self.deadline_wakes = 0
        #: callbacks invoked with the sample time after each sample — the
        #: control plane's metric-stream hook.  Listeners run inside the
        #: simulation's deterministic event order and must only read.
        self.listeners: list = []
        self._g_load = registry.gauge(
            "host_load", "background + VCE-hosted load fraction", labels=("host",)
        )
        self._g_queue = registry.gauge(
            "daemon_queue_depth", "pending requests in the leader queue", labels=("host",)
        )
        self._g_inflight = registry.gauge(
            "host_inflight_instances", "live VCE task instances", labels=("host",)
        )
        self._g_running = registry.gauge("apps_running", "applications in flight")
        self._g_sent = registry.gauge("net_messages_sent", "cumulative network sends")
        self._g_delivered = registry.gauge(
            "net_messages_delivered", "cumulative network deliveries"
        )
        self._g_bytes = registry.gauge("net_bytes_sent", "cumulative network bytes")
        self._g_events = registry.gauge("sim_events", "cumulative simulator events")
        self._c_alloc_errors = registry.counter(
            "sched_alloc_errors_total", "bidding rounds with too few bids"
        )
        self._g_sched_share = registry.gauge(
            "sched_event_share",
            "fraction of all log records from scheduling (sched.* + isis.*)",
        )
        self._c_samples = registry.counter(
            "repro_self_sampler_samples_total", "cluster samples taken"
        ).labels()
        self._c_idle = registry.counter(
            "repro_self_sampler_idle_ticks_total",
            "sampler grid points skipped because nothing had changed",
        ).labels()
        self._c_keepalives = registry.counter(
            "repro_self_sampler_keepalives_total",
            "samples taken only to keep the series continuous",
        ).labels()
        self._c_wakes = registry.counter(
            "repro_self_watchdog_deadline_wakes_total",
            "samples taken because a watchdog deadline fell due",
        ).labels()
        self._g_events_per_instance = registry.gauge(
            "repro_self_events_per_instance", "kernel events per instance DONE"
        )
        self._g_hb_share = registry.gauge(
            "repro_self_heartbeat_event_share",
            "fraction of kernel events that were failure-detector ticks or beats",
        )
        # handles (gauge children + the ring series' push methods), resolved
        # once on the first sample — a sample runs inside the hot loop and
        # does no label lookups
        self._rows: list = []
        self._inflight_rows: dict = {}
        self._solo = None
        self._hb_counters: list = []
        self._sim: "Simulator | None" = None
        # the log's category states (a live view) and the scheduling ones
        self._categories = None
        self._sched_categories: list = []
        self._categories_seen = 0
        # change detection: the kernel's event count at the previous grid
        # point, the grid points since the last sample, and the earliest
        # time (ii) or (iii) can change a reading with no event in between
        self._events_seen = 0
        self._held = 0
        self._load_change_at = -math.inf
        self._wake_at = -math.inf
        # a deadline within this much after a grid point counts as due at it
        self._slack = interval * GRID_TOLERANCE

    # ---------------------------------------------------------------- ticking

    def on_start(self) -> None:
        sim = self._sim = self.sim
        self._events_seen = sim.events_processed
        sim.observe_grid(sim.now + self.interval, self._on_grid, host=self.host.name)

    def _on_grid(self) -> float:
        """The kernel's clock observer: run this grid point, return the
        next one (``math.inf`` once the host is down, which stops it)."""
        if not self.alive:
            return math.inf
        self._grid_point()
        return self._sim.now + self.interval

    def _grid_point(self) -> None:
        sim = self._sim
        events = sim.events_processed
        # a grid point is no kernel event; any event may have changed
        # what a sample reads
        quiet = events == self._events_seen
        self._events_seen = events
        if quiet:
            due = sim.now + self._slack
            if due < self._wake_at:
                if self._held + 1 < KEEPALIVE_TICKS:
                    self._held += 1
                    self.idle_ticks += 1
                    return
                self.keepalives += 1
            elif self.watchdog is not None and due >= self.watchdog.next_deadline:
                self.deadline_wakes += 1
        self.sample()

    # --------------------------------------------------------------- sampling

    def _build_handles(self) -> None:
        """Resolve gauge children and ring series once per host name. The
        daemon *objects* are not cached: a restart replaces the entry in
        the shared dict, and a sample reads whichever daemon is there."""
        store = self.store
        for host_name in sorted(self.daemons):
            self._rows.append(
                (
                    host_name,
                    self._g_load.labels(host_name),
                    self._g_queue.labels(host_name),
                    store.series("host_load", host_name).push,
                    store.series("daemon_queue_depth", host_name).push,
                )
            )
        for host_name in sorted(
            set(self.daemons) | ({self.host.name} if self.host is not None else set())
        ):
            self._inflight_row(host_name)
        exits = self.registry.get("tasks_exited_total")
        self._solo = (
            self._g_running.labels(),
            store.series("apps_running", "").push,
            self._g_sent.labels(),
            self._g_delivered.labels(),
            self._g_bytes.labels(),
            store.series("net_messages_sent", "").push,
            store.series("net_bytes_sent", "").push,
            self._c_alloc_errors.labels(),
            store.series("sched_alloc_errors_total", "").push,
            self._g_sched_share.labels(),
            store.series("sched_event_share", "").push,
            self._g_events.labels(),
            exits.labels("done") if exits is not None else None,
            self._g_events_per_instance.labels(),
            self._g_hb_share.labels(),
        )

    def _inflight_row(self, host_name: str):
        """Get-or-create the handle pair for a host (hosts outside the
        daemon set appear when an instance migrates to one)."""
        row = self._inflight_rows.get(host_name)
        if row is None:
            row = (
                self._g_inflight.labels(host_name),
                self.store.series("host_inflight_instances", host_name).push,
            )
            self._inflight_rows[host_name] = row
        return row

    def _sched_share(self, sim: "Simulator") -> float:
        """What fraction of everything the run logs is scheduling machinery
        (the quantity hierarchical bidding keeps sub-linear at scale): the
        sum of the sched.*/isis.* category counts over the sum of all of
        them, read off the log's category states, never its records."""
        categories = self._categories
        if categories is None:
            categories = self._categories = sim.log.categories()
        if len(categories) != self._categories_seen:
            self._categories_seen = len(categories)
            self._sched_categories = [
                state
                for state in categories
                if state.name.startswith("sched.") or state.name.startswith("isis.")
            ]
        total = sum(map(_count, categories))
        if not total:
            return 0.0
        return sum(map(_count, self._sched_categories)) / total

    def _heartbeat_events(self) -> float:
        """Kernel events spent on failure detection: a detector tick is one
        event, and so is the delivery of each beat. (The group members own
        the two counters; there are none without a scheduler daemon, so
        they are looked up again until both exist.)"""
        counters = self._hb_counters
        if len(counters) < len(HEARTBEAT_COUNTERS):
            families = [self.registry.get(name) for name in HEARTBEAT_COUNTERS]
            counters = self._hb_counters = [f.solo() for f in families if f is not None]
        return sum(map(_value, counters))

    def _observe(self, sim: "Simulator", now: float, record: bool) -> list:
        """Read the cluster and publish the gauges; with *record*, also
        append the readings to the ring series. Returns the dispatched
        in-flight records the watchdog's straggler rule checks."""
        if self._solo is None:
            self._build_handles()
        running, inflight, dispatched = scan_inflight(self.runtime.apps)
        daemons = self.daemons

        for host_name, g_load, g_queue, s_load, s_queue in self._rows:
            daemon = daemons[host_name]
            load = daemon.current_load() if daemon.alive else 0.0
            depth = len(daemon.pending_queue)
            g_load.value = load
            g_queue.value = depth
            if record:
                s_load((now, load))
                s_queue((now, depth))

        rows = self._inflight_rows
        for host_name in inflight:
            if host_name not in rows:
                self._inflight_row(host_name)
        for host_name, (g_inflight, s_inflight) in rows.items():
            n = inflight.get(host_name, 0)
            g_inflight.value = n
            if record:
                s_inflight((now, n))

        (
            g_running,
            s_running,
            g_sent,
            g_delivered,
            g_bytes,
            s_sent,
            s_bytes,
            c_alloc,
            s_alloc,
            g_share,
            s_share,
            g_events,
            c_done,
            g_events_per_instance,
            g_hb_share,
        ) = self._solo
        network = self.runtime.network
        share = self._sched_share(sim)
        g_running.value = running
        g_sent.value = network.messages_sent
        g_delivered.value = network.messages_delivered
        g_bytes.value = network.bytes_sent
        g_share.value = share
        if record:
            s_running((now, running))
            s_sent((now, network.messages_sent))
            s_bytes((now, network.bytes_sent))
            s_alloc((now, c_alloc.value))
            s_share((now, share))

        # the observers' own cost, from counters that already exist
        events = sim.events_processed
        g_events.value = events
        done = c_done.value if c_done is not None else 0.0
        g_events_per_instance.value = events / done if done else 0.0
        g_hb_share.value = self._heartbeat_events() / events if events else 0.0
        return dispatched

    def sample(self) -> None:
        """Take one sample now: read, record, evaluate the watchdog, and
        work out when a reading can next change with no event in between."""
        sim = self._sim
        now = sim.now
        self.ticks += 1
        self._held = 0
        dispatched = self._observe(sim, now, record=True)

        if now >= self._load_change_at:
            self._load_change_at = min(
                (
                    daemon.machine.background_load.next_change_after(now)
                    for daemon in self.daemons.values()
                ),
                default=math.inf,
            )
        wake_at = self._load_change_at
        if self.watchdog is not None:
            self.watchdog.evaluate(now, self.store, dispatched)
            wake_at = min(wake_at, self.watchdog.next_deadline)
        self._wake_at = wake_at

        self._c_samples.value = self.ticks
        self._c_idle.value = self.idle_ticks
        self._c_keepalives.value = self.keepalives
        self._c_wakes.value = self.deadline_wakes
        for listener in self.listeners:
            listener(now)

    def refresh(self) -> None:
        """Bring the gauges up to the current instant, off the grid, for a
        reader (``repro top``, ``/api/metrics``). Looking must not change
        the run: nothing is appended to a series, no watchdog rule is
        evaluated and no listener is called."""
        sim = self.sim
        self._observe(sim, sim.now, record=False)
