"""Crash recovery: stranded-task re-dispatch when the group reports a host lost.

The paper's EXM "migrates tasks when machines fail or are reclaimed"; the
:class:`FailoverManager` is the execution-layer half of that promise. It
installs itself as a runtime failure handler:

- an instance crash (host loss) is offered to the failure handler, which
  **strands** the record instead of failing the application;
- a group coordinator's report of the host lost (:meth:`host_lost`, via
  ``GroupDirectory.host_lost_hooks``) re-dispatches it at once
  (``via="daemon-takeover"``), so the membership's detector sets the delay;
- one backstop timer, ``lease`` seconds after the strand, covers a loss no
  survivor reports, e.g. in a one-member group (``via="lease"``);
- re-dispatch bumps the record's **allocation epoch** (the runtime refuses
  exit commits from stale epochs — at-most-once completion), restores the
  latest checkpoint when one exists, and targets the live host of the
  original placement's machine class whose process table holds the fewest
  live instances.

Every recovery action emits a ``recovery.*`` event and bumps the
``recovery_actions_total`` counter; strand-to-redispatch time lands in the
``recovery_latency_seconds`` histogram so chaos runs can report detection
and recovery latency next to the faults injected.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.migration.base import MigrationContext
from repro.runtime.app import Application, InstanceRecord
from repro.runtime.instance import TaskInstance, live_instances


@dataclass
class FailoverConfig:
    """Knobs for crash recovery.

    Attributes:
        lease: simulated seconds from a strand to its backstop re-dispatch,
            for a loss no group coordinator reports; also the retry period
            of a re-dispatch that finds no live target.
        max_redispatches: per-(task, rank) re-dispatch budget; exhausting
            it lets the failure propagate (application fails).
    """

    lease: float = 8.0
    max_redispatches: int = 5


class FailoverManager:
    """Strand-and-redispatch crash recovery (see module docstring)."""

    name = "failover"

    def __init__(
        self, context: MigrationContext, config: FailoverConfig | None = None
    ) -> None:
        self.context = context
        self.config = config or FailoverConfig()
        self.redispatches = 0
        #: (app.id, task, rank) -> (app, record, epoch, stranded_at)
        self._stranded: dict[tuple[str, str, int], tuple] = {}
        self._attempts: dict[tuple[str, str, int], int] = {}
        self._installed = False

    # ----------------------------------------------------------------- wiring

    def install(self) -> "FailoverManager":
        """Register with the runtime manager (idempotent)."""
        if not self._installed:
            self.context.runtime.add_failure_handler(self._on_failure)
            self._installed = True
        return self

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
        # backstop for a loss no coordinator reports via host_lost()
        epoch = record.epoch
        sim.schedule(self.config.lease, lambda: self._redispatch(key, "lease", epoch))

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

    def _redispatch(
        self, key: tuple[str, str, int], via: str, armed_for: int | None = None
    ) -> None:
        """Re-dispatch the strand at *key*; a timer passes the epoch it was
        armed for (*armed_for*) and does nothing to a later strand."""
        hb = self.context.sim.hb
        if hb is not None:
            # the report and the backstop race to here unordered: the first
            # call pops the strand and the second finds nothing
            hb.write(  # hbrace: ok(R004)
                f"lease:{':'.join(map(str, key))}", "R004", "failover.redispatch"
            )
        entry = self._stranded.get(key)
        if entry is None or armed_for not in (None, entry[2]):
            return  # handled already, or the timer was armed for an earlier strand
        del self._stranded[key]
        app, record, epoch, stranded_at = entry
        sim = self.context.sim
        if app.status.terminal or record.epoch != epoch:
            return
        target = self._pick_host(app, record)
        if target is None:
            # no live host right now — keep the allocation stranded and
            # retry after another lease period
            self._stranded[key] = entry
            sim.schedule(self.config.lease, lambda: self._redispatch(key, via, epoch))
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
        """Live host of a compatible class running the fewest live instances
        (ties by name)."""
        network = self.context.network
        wanted_class = None
        if record.host_name is not None:
            try:
                wanted_class = self.context.machine_of(record.host_name).arch_class
            except Exception:
                wanted_class = None
        candidates: list[tuple[int, str]] = []
        for host in network.hosts.values():
            if not host.up or host.machine is None:
                continue
            if wanted_class is not None and host.machine.arch_class is not wanted_class:
                continue
            candidates.append((len(live_instances(host)), host.name))
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
