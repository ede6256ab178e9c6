"""Common migration machinery."""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.util.errors import MigrationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.compilation.manager import CompilationManager
    from repro.machines.machine import Machine
    from repro.netsim.network import Network
    from repro.runtime.app import Application, InstanceRecord
    from repro.runtime.manager import RuntimeManager


@dataclass
class MigrationContext:
    """Shared services every scheme needs."""

    runtime: "RuntimeManager"
    network: "Network"
    compilation: "CompilationManager | None" = None

    @property
    def sim(self):
        return self.runtime.sim

    def machine_of(self, host_name: str) -> "Machine":
        machine = self.network.host(host_name).machine
        if machine is None:
            raise MigrationError(f"host {host_name!r} has no machine description")
        return machine


class MigrationScheme(abc.ABC):
    """One way of moving a running task instance to another machine.

    ``migrate`` is asynchronous: it starts the move and returns; *on_done*
    fires (with the migration latency) when the task is running at the
    destination. Schemes emit ``migration.*`` events for the metrics layer.
    """

    #: scheme name used in events and experiment tables
    name: str = "abstract"

    def __init__(self, context: MigrationContext) -> None:
        self.context = context
        self.migrations = 0

    @abc.abstractmethod
    def can_migrate(
        self, app: "Application", record: "InstanceRecord", dst_host: str
    ) -> tuple[bool, str]:
        """(eligible, reason-if-not)."""

    @abc.abstractmethod
    def migrate(
        self,
        app: "Application",
        record: "InstanceRecord",
        dst_host: str,
        on_done: Callable[[float], None] | None = None,
    ) -> None:
        """Move ``record``'s instance to *dst_host*; raise
        :class:`MigrationError` if ineligible."""

    # ------------------------------------------------------------- helpers

    def _check(self, app: "Application", record: "InstanceRecord", dst_host: str) -> None:
        ok, reason = self.can_migrate(app, record, dst_host)
        if not ok:
            raise MigrationError(
                f"{self.name} cannot migrate {record.task}[{record.rank}] "
                f"to {dst_host}: {reason}"
            )

    def _emit(
        self,
        record: "InstanceRecord",
        dst_host: str,
        latency: float,
        src: str | None = None,
        **extra,
    ) -> None:
        # the migration is its own span [now - latency, now] in the app's
        # trace, parented beside the instance spans (under the app span)
        trace = {}
        instance = record.instance
        if instance is not None and instance.ctx.trace is not None:
            ctx = instance.ctx.trace
            trace = {
                "trace_id": ctx.trace_id,
                "span_id": self.context.sim.ids.next("span"),
                "parent_span_id": ctx.parent_span_id or ctx.span_id,
            }
        self.context.sim.emit(
            "migration.done",
            f"{record.task}[{record.rank}]",
            scheme=self.name,
            src=src if src is not None else record.host_name,
            dst=dst_host,
            latency=latency,
            task=record.task,
            rank=record.rank,
            **trace,
            **extra,
        )

    def _finish(
        self,
        record: "InstanceRecord",
        dst_host: str,
        started: float,
        on_done: Callable[[float], None] | None,
        src: str | None = None,
        **extra,
    ) -> None:
        self.migrations += 1
        latency = self.context.sim.now - started
        tel = self.context.sim.telemetry
        if tel is not None:
            tel.counter("migrations_total", "completed migrations", labels=("scheme",)) \
                .labels(self.name).inc()
            tel.histogram(
                "migration_latency_seconds", "suspend to running-at-destination",
                labels=("scheme",),
            ).labels(self.name).observe(latency)
        self._emit(record, dst_host, latency, src=src, **extra)
        if on_done is not None:
            on_done(latency)
