"""The cluster sampler: periodic snapshots of live cluster state.

A :class:`ClusterSampler` is a netsim process (conventionally spawned on
the user's workstation) whose daemon timer fires every ``interval``
simulated seconds. Each tick it reads — never re-scans the event log —

- per-host background load (through each scheduler daemon's
  ``current_load``, the same number bids carry),
- per-daemon pending-queue depth,
- in-flight VCE instances per host,
- the network's cumulative message/byte counters,
- the simulator's event count (the base of the heartbeat share ``repro
  top`` shows beside the ``isis_parked`` / ``isis_awake`` gauges the group
  members keep themselves),

publishes them as gauges in the registry, appends them to bounded
ring-buffer time series, and then lets the health watchdog evaluate its
rules over the fresh sample. Daemon timers never keep the simulation
alive, so an idle VCE still terminates.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.netsim.process import SimProcess
from repro.telemetry.series import SeriesStore

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.manager import RuntimeManager
    from repro.scheduler.daemon import SchedulerDaemon
    from repro.telemetry.registry import MetricsRegistry
    from repro.telemetry.watchdog import HealthWatchdog


class ClusterSampler(SimProcess):
    """See module docstring.

    Args:
        name: process name (conventionally ``"telemetry"``).
        registry: the live metrics registry to publish gauges into.
        runtime: the runtime manager (in-flight instances, running apps).
        daemons: host name -> scheduler daemon (load and queue depth).
        interval: simulated seconds between samples.
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
        self.ticks = 0
        #: callbacks invoked with the sample time after each tick — the
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
        # per-tick handles (gauge children + ring series), resolved once on
        # the first sample — the sampler runs inside the hot loop, so the
        # steady-state tick does no dict/label lookups at all
        self._rows: list = []
        self._inflight_rows: dict = {}
        self._solo = None

    # ---------------------------------------------------------------- ticking

    def on_start(self) -> None:
        self.set_timer(self.interval, "sample", daemon=True)

    def on_timer(self, key: str) -> None:
        if key == "sample":
            self.sample()
            self.set_timer(self.interval, "sample", daemon=True)

    # --------------------------------------------------------------- sampling

    def _inflight_by_host(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for app in self.runtime.apps.values():
            # the app maintains its in-flight record index exactly, so this
            # scan costs O(live instances), not O(application size)
            for record in app.inflight.values():
                for inst in (record.instance, *record.redundant_copies):
                    if inst is not None and not inst.state.terminal and inst.host is not None:
                        out[inst.host.name] = out.get(inst.host.name, 0) + 1
        return out

    def _build_handles(self) -> None:
        """Resolve gauge children and ring series once; the daemon set and
        the sampler's own host are fixed for the life of the process."""
        store = self.store
        for host_name, daemon in sorted(self.daemons.items()):
            self._rows.append(
                (
                    daemon,
                    self._g_load.labels(host_name),
                    self._g_queue.labels(host_name),
                    store.series("host_load", host_name),
                    store.series("daemon_queue_depth", host_name),
                )
            )
        for host_name in sorted(
            set(self.daemons) | ({self.host.name} if self.host is not None else set())
        ):
            self._inflight_rows[host_name] = (
                self._g_inflight.labels(host_name),
                store.series("host_inflight_instances", host_name),
            )
        self._solo = (
            self._g_running.labels(),
            store.series("apps_running", ""),
            self._g_sent.labels(),
            self._g_delivered.labels(),
            self._g_bytes.labels(),
            store.series("net_messages_sent", ""),
            store.series("net_bytes_sent", ""),
            self._c_alloc_errors.labels(),
            store.series("sched_alloc_errors_total", ""),
            self._g_sched_share.labels(),
            store.series("sched_event_share", ""),
        )

    def _inflight_row(self, host_name: str):
        """Get-or-create the handle pair for a host outside the daemon set
        (e.g. an instance migrated to a host with no scheduler daemon)."""
        row = self._inflight_rows.get(host_name)
        if row is None:
            row = (
                self._g_inflight.labels(host_name),
                self.store.series("host_inflight_instances", host_name),
            )
            self._inflight_rows[host_name] = row
        return row

    def sample(self) -> None:
        """Take one snapshot now (also callable directly from tests)."""
        if self._solo is None:
            self._build_handles()
        now = self.now
        self.ticks += 1
        inflight = self._inflight_by_host()

        for daemon, g_load, g_queue, s_load, s_queue in self._rows:
            load = daemon.current_load() if daemon.alive else 0.0
            depth = len(daemon.pending_queue)
            g_load.value = load
            g_queue.value = depth
            s_load.append(now, load)
            s_queue.append(now, depth)

        for host_name in inflight.keys() - self._inflight_rows.keys():
            self._inflight_row(host_name)
        for host_name, (g_inflight, s_inflight) in self._inflight_rows.items():
            n = inflight.get(host_name, 0)
            g_inflight.value = n
            s_inflight.append(now, n)

        running = sum(
            1 for app in self.runtime.apps.values() if not app.status.terminal
        )
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
        ) = self._solo
        g_running.value = running
        s_running.append(now, running)

        network = self.runtime.network
        g_sent.value = network.messages_sent
        g_delivered.value = network.messages_delivered
        g_bytes.value = network.bytes_sent
        s_sent.append(now, network.messages_sent)
        s_bytes.append(now, network.bytes_sent)
        s_alloc.append(now, c_alloc.value)

        self._g_events.set(self.sim.events_processed)

        # scheduler event share: what fraction of everything the run logs
        # is scheduling machinery (the quantity hierarchical bidding keeps
        # sub-linear at scale; category_counts is maintained incrementally,
        # so this never re-scans the log)
        counts = self.sim.log.category_counts()
        total = sum(counts.values())
        sched = sum(
            v
            for k, v in counts.items()
            if k.startswith("sched.") or k.startswith("isis.")
        )
        share = sched / total if total else 0.0
        g_share.value = share
        s_share.append(now, share)

        if self.watchdog is not None:
            self.watchdog.evaluate(now, self.store)
        for listener in self.listeners:
            listener(now)
