"""VCE wiring: one object bundling the live-telemetry parts.

The :class:`VirtualComputingEnvironment` creates a :class:`Telemetry` when
``VCEConfig.telemetry`` is on: the registry is published on the simulator
(``sim.telemetry``) for the instrumented components, and the sampler +
watchdog pair is spawned on the user's workstation at boot.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.telemetry.export import snapshot, to_prometheus
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.sampler import ClusterSampler
from repro.telemetry.series import SeriesStore
from repro.telemetry.watchdog import HealthWatchdog, WatchdogConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.netsim.host import Host
    from repro.netsim.kernel import Simulator
    from repro.runtime.manager import RuntimeManager
    from repro.scheduler.daemon import SchedulerDaemon


class Telemetry:
    """Registry + sampler + watchdog for one VCE."""

    def __init__(
        self,
        sim: "Simulator",
        runtime: "RuntimeManager",
        daemons: dict[str, "SchedulerDaemon"],
        interval: float = 4.0,
        series_capacity: int = 600,
        watchdog_config: WatchdogConfig | None = None,
    ) -> None:
        self.sim = sim
        # reuse a registry already published on the simulator (the VCE
        # installs one before building components so they can cache handles)
        self.registry = sim.telemetry if sim.telemetry is not None else MetricsRegistry()
        sim.telemetry = self.registry
        self.store = SeriesStore(series_capacity)
        self.watchdog = HealthWatchdog(
            self.registry,
            runtime,
            daemons,
            emit=lambda category, **data: sim.emit(category, "watchdog", **data),
            config=watchdog_config,
            interval=interval,
        )
        self.sampler = ClusterSampler(
            "telemetry",
            self.registry,
            runtime,
            daemons,
            interval=interval,
            store=self.store,
            watchdog=self.watchdog,
        )

    def install(self, host: "Host") -> None:
        """Spawn the sampler process on *host* (idempotent)."""
        if self.sampler.host is None:
            host.spawn(self.sampler)

    # ------------------------------------------------------------ convenience

    def refresh(self) -> None:
        """Bring the gauges up to the current instant (they are otherwise
        as old as the last sample). Read-only as far as the run is
        concerned: no series point, no watchdog verdict, no log record —
        see :meth:`ClusterSampler.refresh`."""
        if self.sampler.host is not None:
            self.sampler.refresh()

    def render(self, title: str = "repro top", refresh: bool = True) -> str:
        from repro.telemetry.top import render_top

        if refresh:
            self.refresh()
        return render_top(
            self.registry, self.store, self.watchdog, now=self.sim.now, title=title
        )

    def snapshot(self, refresh: bool = True, include_health: bool = True) -> dict:
        """Metric snapshot plus (by default) the watchdog's rule states —
        the one schema ``repro top --json`` and the control-plane dashboard
        share (see :meth:`HealthWatchdog.snapshot`)."""
        if refresh:
            self.refresh()
        out = snapshot(self.registry, time=self.sim.now)
        if include_health:
            out["health"] = self.watchdog.snapshot()
        return out

    def prometheus(self) -> str:
        return to_prometheus(self.registry)
