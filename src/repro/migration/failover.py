"""Crash recovery: lease-based allocations and stranded-task re-dispatch.

The paper's EXM "migrates tasks when machines fail or are reclaimed"; the
:class:`FailoverManager` is the execution-layer half of that promise. It
installs itself as a runtime failure handler and dispatch hook:

- every dispatch takes a **lease**: a periodic check that the instance is
  still alive on a reachable host. A live instance renews; an expired
  lease (dead instance whose exit was never committed, or a host that
  silently vanished) strands the allocation and re-enters it into the
  dispatch pipeline.
- an instance crash (host loss) is offered to the failure handler, which
  **strands** the record instead of failing the application, then
  re-dispatches after a detection delay — or immediately when a scheduler
  daemon's failure detector reports the host lost (peer takeover via
  :meth:`host_lost`).
- re-dispatch bumps the record's **allocation epoch** (the runtime refuses
  exit commits from stale epochs — at-most-once completion), restores the
  latest checkpoint when one exists, and targets the least-loaded live
  host of a compatible machine class.

Every recovery action emits a ``recovery.*`` event and bumps the
``recovery_actions_total`` counter; strand-to-redispatch time lands in the
``recovery_latency_seconds`` histogram so chaos runs can report detection
and recovery latency next to the faults injected.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.migration.base import MigrationContext
from repro.runtime.app import Application, InstanceRecord
from repro.runtime.instance import InstanceState, TaskInstance


@dataclass
class FailoverConfig:
    """Knobs for crash recovery.

    Attributes:
        lease: simulated seconds between lease checks on a live instance.
        detection: delay between a strand and its re-dispatch when no
            daemon reports the loss earlier (models failure-detection
            latency of the crash-notification path).
        max_redispatches: per-(task, rank) re-dispatch budget; exhausting
            it lets the failure propagate (application fails).
        same_class_only: restrict re-dispatch targets to hosts whose
            machine class matches the original placement's class.
    """

    lease: float = 8.0
    detection: float = 2.0
    max_redispatches: int = 5
    same_class_only: bool = True


class FailoverManager:
    """Lease-based allocation recovery (see module docstring)."""

    name = "failover"

    def __init__(
        self, context: MigrationContext, config: FailoverConfig | None = None
    ) -> None:
        self.context = context
        self.config = config or FailoverConfig()
        self.redispatches = 0
        self.leases_expired = 0
        #: (app.id, task, rank) -> (app, record, epoch, stranded_at)
        self._stranded: dict[tuple[str, str, int], tuple] = {}
        self._attempts: dict[tuple[str, str, int], int] = {}
        self._installed = False

    # ----------------------------------------------------------------- wiring

    def install(self) -> "FailoverManager":
        """Register with the runtime manager (idempotent)."""
        if not self._installed:
            runtime = self.context.runtime
            runtime.add_failure_handler(self._on_failure)
            runtime.dispatch_hooks.append(self._on_dispatch)
            self._installed = True
        return self

    # ----------------------------------------------------------------- leases

    def _on_dispatch(self, app: Application, record: InstanceRecord) -> None:
        self._arm_lease(app, record, record.epoch)

    def _arm_lease(self, app: Application, record: InstanceRecord, epoch: int) -> None:
        self.context.sim.schedule(
            self.config.lease, lambda: self._check_lease(app, record, epoch)
        )

    def _check_lease(self, app: Application, record: InstanceRecord, epoch: int) -> None:
        hb = self.context.sim.hb
        if hb is not None:
            # a lease check racing a strand/redispatch is a no-op: the epoch
            # comparison below drops checks against superseded allocations
            hb.read(  # hbrace: ok(R004)
                f"lease:{app.id}:{record.task}:{record.rank}",
                "R004", "failover.check_lease",
            )
        if app.status.terminal or record.epoch != epoch:
            return  # app over, or this allocation was already superseded
        if record.state in (InstanceState.DONE, InstanceState.KILLED):
            return
        instance = record.instance
        host_up = (
            instance is not None
            and instance.host is not None
            and instance.host.up
        )
        if instance is not None and instance.alive and host_up:
            self._arm_lease(app, record, epoch)  # renewed
            return
        # lease expired: the allocation is dead but nothing committed its
        # exit — strand it and put the task back into the dispatch pipeline
        self.leases_expired += 1
        self._tel_count("lease_expired")
        self.context.sim.emit(
            "recovery.lease_expired", app.id,
            task=record.task, rank=record.rank, epoch=epoch,
            host=record.host_name,
        )
        self._strand(app, record, reason="lease-expired")

    # ---------------------------------------------------------------- failure

    def _on_failure(
        self, app: Application, record: InstanceRecord, instance: TaskInstance
    ) -> bool:
        """Runtime failure handler: absorb crashes by stranding the record."""
        key = (app.id, record.task, record.rank)
        if self._attempts.get(key, 0) >= self.config.max_redispatches:
            self._tel_count("gave_up")
            self.context.sim.emit(
                "recovery.gave_up", app.id,
                task=record.task, rank=record.rank,
                attempts=self._attempts[key],
            )
            return False
        self._strand(app, record, reason="instance-failed")
        return True

    def _strand(self, app: Application, record: InstanceRecord, reason: str) -> None:
        key = (app.id, record.task, record.rank)
        sim = self.context.sim
        hb = sim.hb
        if hb is not None:
            hb.write(f"lease:{':'.join(map(str, key))}", "R004", "failover.strand")
        if key in self._stranded:
            return
        self._stranded[key] = (app, record, record.epoch, sim.now)
        self._tel_count("strand")
        sim.emit(
            "recovery.strand", app.id,
            task=record.task, rank=record.rank, epoch=record.epoch,
            host=record.host_name, reason=reason,
        )
        # fallback path: re-dispatch after the detection delay unless a
        # daemon's failure detector gets there first via host_lost()
        sim.schedule(self.config.detection, lambda: self._redispatch(key, "timeout"))

    # ------------------------------------------------------------- redispatch

    def host_lost(self, host_name: str) -> None:
        """Peer-takeover entry point: a scheduler daemon detected *host_name*
        dead; immediately re-dispatch everything stranded there."""
        lost = [
            key
            for key, (_, record, _, _) in self._stranded.items()
            if record.host_name == host_name
        ]
        for key in lost:
            self._tel_count("takeover")
            self._redispatch(key, "daemon-takeover")

    def _redispatch(self, key: tuple[str, str, int], via: str) -> None:
        hb = self.context.sim.hb
        if hb is not None:
            hb.write(f"lease:{':'.join(map(str, key))}", "R004", "failover.redispatch")
        entry = self._stranded.pop(key, None)
        if entry is None:
            return  # already handled by the other path
        app, record, epoch, stranded_at = entry
        sim = self.context.sim
        if app.status.terminal or record.epoch != epoch:
            return
        target = self._pick_host(app, record)
        if target is None:
            # no live host right now — keep the allocation stranded and
            # retry after another detection period
            self._stranded[key] = entry
            sim.schedule(self.config.detection, lambda: self._redispatch(key, via))
            return
        self._attempts[key] = self._attempts.get(key, 0) + 1
        self.redispatches += 1
        checkpoint = self.context.runtime.checkpoints.get(
            app.id, record.task, record.rank
        )
        restored = checkpoint.state if checkpoint is not None else None
        latency = sim.now - stranded_at
        self._tel_count("redispatch")
        tel = sim.telemetry
        if tel is not None:
            tel.histogram(
                "recovery_latency_seconds", "strand to re-dispatch"
            ).observe(latency)
        sim.emit(
            "recovery.redispatch", app.id,
            task=record.task, rank=record.rank,
            src=record.host_name, dst=target, via=via,
            attempt=self._attempts[key], latency=latency,
            restored=checkpoint is not None,
        )
        self.context.runtime.dispatch_instance(app, record, target, restored_state=restored)

    def _pick_host(self, app: Application, record: InstanceRecord) -> str | None:
        """Least-loaded live host of a compatible class (deterministic)."""
        network = self.context.network
        wanted_class = None
        if self.config.same_class_only and record.host_name is not None:
            try:
                wanted_class = self.context.machine_of(record.host_name).arch_class
            except Exception:
                wanted_class = None
        load = self.context.runtime.instances_by_host()
        candidates: list[tuple[int, str]] = []
        for host in network.hosts.values():
            if not host.up or host.machine is None:
                continue
            if wanted_class is not None and host.machine.arch_class is not wanted_class:
                continue
            candidates.append((len(load.get(host.name, ())), host.name))
        if not candidates:
            return None
        candidates.sort()
        return candidates[0][1]

    # -------------------------------------------------------------- telemetry

    def _tel_count(self, action: str) -> None:
        tel = self.context.sim.telemetry
        if tel is not None:
            tel.counter(
                "recovery_actions_total", "failover recovery actions",
                labels=("action",),
            ).labels(action).inc()

    # ---------------------------------------------------------------- queries

    def stranded(self) -> list[tuple[str, str, int]]:
        """Currently-stranded allocations (app, task, rank)."""
        return sorted(self._stranded)

    def report(self) -> dict[str, int]:
        return {
            "redispatches": self.redispatches,
            "leases_expired": self.leases_expired,
            "stranded": len(self._stranded),
        }
