"""Process migration through redundant execution (§4.4, first scheme).

"Dispatch the same task on several idle machines. If one of those machines
gets busy with other work then kill the incarnation of the redundant task
on that machine. This achieves process migration with low overhead because
killing a task and using an already running redundant copy avoids the
communication overhead of moving a process and its state information over
the network."

Operation:

- :meth:`dispatch_redundant` launches extra copies of an instance on other
  hosts; the record's primary is whichever copy finishes first (the first
  DONE promotes itself, and every sibling copy is killed).
- :meth:`evict` removes the copy on a machine that became busy; if the
  evicted copy was the primary, a surviving copy is promoted and the
  instance's channel ports are redirected to it — the "migration" itself,
  with effectively zero transfer cost.

Limitation (inherent to the approach, and why the paper pairs it with
communication redirection): copies of a task that *receives* messages each
need the stream replayed; here only the primary's ports are bound, so the
scheme suits compute-dominated tasks — the very workloads (§4.4 cites
Monte Carlo simulations and batch jobs) redundant execution targets.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.migration.base import MigrationContext, MigrationScheme
from repro.runtime.instance import InstanceState, TaskInstance
from repro.util.errors import MigrationError
from repro.vmpi.communicator import TaskContext

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.app import Application, InstanceRecord


class RedundantExecutionManager(MigrationScheme):
    name = "redundant"

    def __init__(self, context: MigrationContext) -> None:
        super().__init__(context)
        self.copies_launched = 0
        self.copies_killed = 0
        self._installed = False
        #: the ``on_exit`` of every unpromoted copy (promotion hands the copy
        #: the runtime manager's); one bound method, no closure per copy
        self._on_copy_exit = self._route_copy_exit

    def install(self) -> "RedundantExecutionManager":
        """Register as a runtime failure handler: when a primary instance
        fails (e.g. its host crashed), a live redundant copy is promoted and
        the application continues — the fault-tolerance side of the scheme.
        Returns self for chaining."""
        if not self._installed:
            self._installed = True
            self.context.runtime.add_failure_handler(self._on_primary_failure)
        return self

    def install_auto(self) -> "RedundantExecutionManager":
        """Additionally honour user hints: every task whose
        ``ExecutionHints.redundancy`` exceeds 1 automatically gets
        ``redundancy - 1`` copies on the least-loaded other machines at
        first dispatch ("if required or requested by the user", §3.1.2)."""
        self.install()
        self.context.runtime.dispatch_hooks.append(self._on_dispatch)
        return self

    def _on_dispatch(self, app, record) -> None:
        node = app.graph.task(record.task)
        wanted = node.hints.redundancy - 1
        if wanted <= 0 or len(record.placements) > 1 or record.redundant_copies:
            return  # only the first dispatch of an instance spawns copies
        now = self.context.sim.now
        candidates = sorted(
            (
                m
                for m in self._machine_names()
                if m != record.host_name and self._host_up(m)
            ),
            key=lambda m: self.context.machine_of(m).load_at(now),
        )
        hosts = candidates[:wanted]
        if hosts:
            self.dispatch_redundant(app, record, hosts)

    def _machine_names(self):
        return [
            name
            for name, host in self.context.network.hosts.items()
            if host.machine is not None
        ]

    def _host_up(self, name: str) -> bool:
        return self.context.network.hosts[name].up

    def _on_primary_failure(self, app, record, instance) -> bool:
        live = [
            c
            for c in record.redundant_copies
            if not c.state.terminal and c.host is not None and c.host.up
        ]
        if not live:
            return False
        self.context.sim.emit(
            "migration.redundant_failover",
            f"{record.task}[{record.rank}]",
            to=live[0].host.name,
        )
        self._promote(app, record, live[0], finished=False)
        # clear the FAILED mark; copy is live (through the app's choke point
        # so its done-count stays exact)
        app.commit_state(record, live[0].state)
        return True

    # ------------------------------------------------------------- dispatch

    def dispatch_redundant(
        self, app: "Application", record: "InstanceRecord", hosts: list[str]
    ) -> list[TaskInstance]:
        """Launch one extra copy on each named host."""
        runtime = self.context.runtime
        node = app.graph.task(record.task)
        copies = []
        for host_name in hosts:
            host = self.context.network.host(host_name)
            name = f"{app.id}.{record.task}.{record.rank}~copy{len(record.redundant_copies)}"
            ctx = TaskContext(
                app=app.id,
                task=record.task,
                rank=record.rank,
                size=node.instances,
                params=app.params,
            )
            copy = TaskInstance(
                name=name,
                ctx=ctx,
                node=node,
                channels={},
                mpi_channel=None,
                checkpoints=runtime.checkpoints,
                on_exit=self._on_copy_exit,
                metrics=runtime.vmpi_metrics,
                categories=runtime.task_categories,
            )
            host.spawn(copy)
            record.redundant_copies.append(copy)
            copies.append(copy)
            self.copies_launched += 1
            self.context.sim.emit(
                "migration.redundant_dispatch",
                f"{record.task}[{record.rank}]",
                host=host_name,
            )
        return copies

    # --------------------------------------------------------------- events

    def _route_copy_exit(
        self, copy: TaskInstance, state: InstanceState, outcome: Any
    ) -> None:
        app, record = self.context.runtime.record_of(copy)
        self._copy_exited(app, record, copy, state)

    def _copy_exited(
        self,
        app: "Application",
        record: "InstanceRecord",
        copy: TaskInstance,
        state: InstanceState,
    ) -> None:
        if state is not InstanceState.DONE:
            if copy in record.redundant_copies:
                record.redundant_copies.remove(copy)
            return
        if record.state.terminal:
            return
        # first finisher wins: promote this copy's result as the record's
        self._promote(app, record, copy, finished=True)

    def _promote(
        self,
        app: "Application",
        record: "InstanceRecord",
        copy: TaskInstance,
        finished: bool,
    ) -> None:
        runtime = self.context.runtime
        old_primary = record.instance
        if copy in record.redundant_copies:
            record.redundant_copies.remove(copy)
        if old_primary is not None and not old_primary.state.terminal:
            old_primary.kill("superseded-by-redundant-copy")
        old_address = old_primary.address if old_primary is not None else None
        record.instance = copy
        record.host_name = copy.host.name if copy.host else record.host_name
        record.placements.append(record.host_name or "?")
        copy.on_exit = runtime.on_instance_exit
        if old_address is not None and copy.host is not None:
            runtime.rebind_instance(old_address, copy.address)
        self.context.sim.emit(
            "migration.redundant_promote",
            f"{record.task}[{record.rank}]",
            host=record.host_name,
        )
        if finished:
            # the copy already completed: feed the completion through the
            # runtime's normal bookkeeping
            runtime._instance_exited(app, record, copy, InstanceState.DONE, copy.result)

    # ------------------------------------------------------------ migration

    def can_migrate(
        self, app: "Application", record: "InstanceRecord", dst_host: str
    ) -> tuple[bool, str]:
        live = [
            c
            for c in record.redundant_copies
            if not c.state.terminal and c.host is not None and c.host.up
        ]
        if not live:
            return False, "no live redundant copy to fall back on"
        return True, ""

    def migrate(
        self,
        app: "Application",
        record: "InstanceRecord",
        dst_host: str,
        on_done: Callable[[float], None] | None = None,
    ) -> None:
        """"Migrate" by killing the primary and promoting the copy running
        on *dst_host* (or the first live copy when dst_host is None-like)."""
        self._check(app, record, dst_host)
        started = self.context.sim.now
        src_host = record.host_name
        live = [
            c
            for c in record.redundant_copies
            if not c.state.terminal and c.host is not None and c.host.up
        ]
        chosen = next((c for c in live if c.host.name == dst_host), live[0])
        self.copies_killed += 1
        self._promote(app, record, chosen, finished=False)
        self._finish(record, chosen.host.name, started, on_done, src=src_host)

    def evict(self, app: "Application", record: "InstanceRecord", busy_host: str) -> None:
        """The busy-machine rule: kill whatever copy (or primary) runs on
        *busy_host*; promote a survivor if the primary was evicted."""
        for copy in list(record.redundant_copies):
            if copy.host is not None and copy.host.name == busy_host and not copy.state.terminal:
                copy.kill("host-busy")
                record.redundant_copies.remove(copy)
                self.copies_killed += 1
        primary = record.instance
        if (
            primary is not None
            and not primary.state.terminal
            and primary.host is not None
            and primary.host.name == busy_host
        ):
            ok, reason = self.can_migrate(app, record, busy_host)
            if not ok:
                raise MigrationError(
                    f"cannot evict primary of {record.task}[{record.rank}]: {reason}"
                )
            live = [
                c
                for c in record.redundant_copies
                if not c.state.terminal and c.host is not None and c.host.up
            ]
            primary.kill("host-busy")
            self.copies_killed += 1
            self._promote(app, record, live[0], finished=False)
