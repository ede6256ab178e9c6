"""Deterministic fault injection."""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover
    from repro.machines.archclass import MachineClass
    from repro.netsim.kernel import Simulator
    from repro.netsim.network import Network
    from repro.scheduler.directory import GroupDirectory


class FaultInjector:
    """Schedules crashes, recoveries, and churn on a simulated cluster.

    Args:
        sim: the simulator.
        network: the cluster network.
        restart_daemon: called with a host name after the host recovers, to
            reboot its scheduler daemon (the VCE supplies
            :meth:`~repro.core.environment.VirtualComputingEnvironment
            .restart_daemon`, as it does to the chaos controller). When
            None, a recovery only brings the host back up.
    """

    def __init__(
        self,
        sim: "Simulator",
        network: "Network",
        restart_daemon: Callable[[str], None] | None = None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.restart_daemon = restart_daemon
        self._rng = sim.rng.stream("faults")
        self.crashes = 0

    # ------------------------------------------------------------- one-shots

    def crash_at(self, host_name: str, time: float) -> None:
        """Crash *host_name* at absolute simulation time *time*."""

        def boom() -> None:
            host = self.network.host(host_name)
            if host.up:
                self.crashes += 1
                self.sim.emit("fault.crash", host_name)
                host.crash()

        self.sim.schedule_at(time, boom)

    def recover_at(self, host_name: str, time: float) -> None:
        def fix() -> None:
            host = self.network.host(host_name)
            if not host.up:
                self.sim.emit("fault.recover", host_name)
                host.recover()
                if self.restart_daemon is not None:
                    self.restart_daemon(host_name)

        self.sim.schedule_at(time, fix)

    def crash_leader_at(
        self, directory: "GroupDirectory", arch_class: "MachineClass", time: float
    ) -> None:
        """Crash whatever machine leads *arch_class*'s group at *time* —
        resolved at fire time, so late leadership changes are honoured."""

        def boom() -> None:
            leader = directory.leader(arch_class)
            host = self.network.host(leader.host)
            if host.up:
                self.crashes += 1
                self.sim.emit("fault.crash_leader", leader.host, arch_class=arch_class.value)
                host.crash()

        self.sim.schedule_at(time, boom)

    # ----------------------------------------------------------------- churn

    def churn(
        self,
        host_names: list[str],
        mean_up: float = 120.0,
        mean_down: float = 30.0,
        until: float = 1_000.0,
        spare: set[str] | None = None,
    ) -> None:
        """Give each listed host independent exponential up/down cycling
        until *until*. Hosts in *spare* are never crashed."""
        spare = spare or set()
        for name in host_names:
            if name in spare:
                continue
            self._schedule_cycle(name, self.sim.now, mean_up, mean_down, until)

    def _schedule_cycle(
        self, name: str, now: float, mean_up: float, mean_down: float, until: float
    ) -> None:
        down_at = now + self._rng.expovariate(1.0 / mean_up)
        if down_at >= until:
            return
        up_at = down_at + self._rng.expovariate(1.0 / mean_down)
        self.crash_at(name, down_at)
        if up_at < until:
            self.recover_at(name, up_at)
        self._schedule_cycle(name, up_at, mean_up, mean_down, until)
