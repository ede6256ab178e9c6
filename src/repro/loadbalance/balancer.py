"""The load balancer: periodic load monitoring + policy application."""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.loadbalance.policies import BalancingPolicy
    from repro.machines.database import MachineDatabase
    from repro.netsim.kernel import Simulator
    from repro.runtime.app import Application, InstanceRecord
    from repro.runtime.instance import TaskInstance
    from repro.runtime.manager import RuntimeManager


class LoadBalancer:
    """Polls every machine's background load each ``interval`` seconds and
    notifies the policy on busy/idle transitions.

    Only *background* (locally-initiated) load drives transitions — the
    point of both philosophies is to yield to the machine's owner, not to
    react to the VCE's own work.
    """

    def __init__(
        self,
        runtime: "RuntimeManager",
        database: "MachineDatabase",
        policy: "BalancingPolicy",
        busy_threshold: float = 0.5,
        interval: float = 1.0,
    ) -> None:
        self.runtime = runtime
        self.database = database
        self.policy = policy
        self.busy_threshold = busy_threshold
        self.interval = interval
        self._was_busy: dict[str, bool] = {}
        self._running = False
        self.transitions = 0

    @property
    def sim(self) -> "Simulator":
        return self.runtime.sim

    # ---------------------------------------------------------------- control

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self.sim.schedule(self.interval, self._tick, daemon=True)

    def stop(self) -> None:
        self._running = False

    def _tick(self) -> None:
        if not self._running:
            return
        now = self.sim.now
        for machine in self.database:
            busy = machine.load_at(now) >= self.busy_threshold
            was = self._was_busy.get(machine.name, False)
            if busy == was:
                continue
            self._was_busy[machine.name] = busy
            remote = self.runtime.instances_on(machine.name)
            if not remote and busy:
                continue  # nothing hosted; nothing to do
            self.transitions += 1
            if busy:
                self.sim.emit("lb.busy", machine.name, hosted=len(remote))
                self.policy.on_busy(self, machine, remote)
            else:
                self.sim.emit("lb.idle", machine.name, hosted=len(remote))
                self.policy.on_idle(self, machine, remote)
        self.sim.schedule(self.interval, self._tick, daemon=True)

    # ---------------------------------------------------------------- helpers

    def least_loaded_machine(self, exclude: set[str] = frozenset()) -> str | None:
        """Least-background-loaded, up, non-excluded machine (ties by name)."""
        best_name, best_load = None, None
        now = self.sim.now
        for machine in self.database:
            if machine.name in exclude:
                continue
            host = self.runtime.network.hosts.get(machine.name)
            if host is None or not host.up:
                continue
            load = machine.load_at(now)
            if best_load is None or (load, machine.name) < (best_load, best_name):
                best_name, best_load = machine.name, load
        return best_name

    def locate(
        self, instance: "TaskInstance"
    ) -> tuple["Application | None", "InstanceRecord | None"]:
        """Find the application record owning *instance* (None for
        redundant copies, which records track separately)."""
        for app in self.runtime.apps.values():
            record = app.records.get((instance.ctx.task, instance.ctx.rank))
            if record is not None and instance.ctx.app == app.id:
                return app, record
        return None, None
