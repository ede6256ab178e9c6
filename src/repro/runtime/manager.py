"""The runtime manager: dispatch, precedence, staging, completion.

The manager turns an annotated task graph plus a :class:`Placement` into
running :class:`~repro.runtime.instance.TaskInstance` processes:

- root tasks dispatch immediately; successors dispatch when every instance
  of every precedence predecessor has completed;
- DATA-arc volumes are charged as stage-in delay when producer and consumer
  landed on different hosts;
- binary availability is consulted through an optional *binary service*
  (the compilation manager): a task whose binary is already prepared for
  the target machine class starts immediately, otherwise it pays
  compile-on-demand time — the cost anticipatory compilation (§4.5)
  removes;
- instance failures are offered to registered failure handlers (migration
  and fault-tolerance policies); unhandled failures fail the application.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Protocol, Sequence

from repro.channels.channel import Channel, ChannelManager
from repro.runtime.app import Application, AppStatus, InstanceRecord
from repro.runtime.checkpoints import CheckpointStore
from repro.runtime.instance import (
    DISPATCH_FIELDS,
    InstanceState,
    TaskCategories,
    TaskInstance,
    live_instances,
)
from repro.taskgraph import ArcKind, TaskGraph
from repro.trace.context import TraceContext, trace_fields
from repro.util.errors import ConfigurationError, SimulationError
from repro.vmpi.communicator import TaskContext

if TYPE_CHECKING:  # pragma: no cover
    from repro.machines.machine import Machine
    from repro.netsim.host import Host
    from repro.netsim.kernel import Simulator
    from repro.netsim.network import Network
    from repro.taskgraph.node import TaskNode


# enum members the dispatch and exit paths test, bound once: the stage-in
# walk would look ``ArcKind.DATA`` up once per in-arc (see runtime/instance.py)
_DATA = ArcKind.DATA
_PENDING, _DONE, _FAILED = InstanceState.PENDING, InstanceState.DONE, InstanceState.FAILED


class BinaryService(Protocol):
    """What the runtime manager needs from the compilation manager."""

    def load_delay(self, task: "TaskNode", machine: "Machine", now: float) -> float:
        """Seconds of extra start latency to have a runnable binary on
        *machine* (0.0 when one is already prepared). May raise
        :class:`~repro.util.errors.CompilationError` if impossible."""
        ...  # pragma: no cover


@dataclass
class Placement:
    """(task, rank) → host-name assignment produced by the scheduler."""

    assignments: dict[tuple[str, int], str] = field(default_factory=dict)

    def assign(self, task: str, rank: int, host_name: str) -> None:
        self.assignments[(task, rank)] = host_name

    def host_for(self, task: str, rank: int) -> str:
        try:
            return self.assignments[(task, rank)]
        except KeyError:
            raise ConfigurationError(f"no placement for {task}[{rank}]") from None

    def covers(self, graph: TaskGraph) -> bool:
        return all(
            (node.name, rank) in self.assignments
            for node in graph
            for rank in range(node.instances)
        )


#: Failure handler signature: return True if the failure was handled (the
#: handler re-dispatched or absorbed it), False to let the app fail.
FailureHandler = Callable[[Application, InstanceRecord, TaskInstance], bool]


class RuntimeManager:
    """Central dispatch bookkeeping of the EXM (see module docstring)."""

    def __init__(
        self,
        sim: "Simulator",
        network: "Network",
        channels: ChannelManager | None = None,
        checkpoints: CheckpointStore | None = None,
        binary_service: BinaryService | None = None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.channels = channels or ChannelManager(network)
        self.checkpoints = checkpoints or CheckpointStore()
        self.binary_service = binary_service
        self.apps: dict[str, Application] = {}
        self.failure_handlers: list[FailureHandler] = []
        #: called after every instance dispatch — migration/redundancy
        #: services hook here (e.g. to launch redundant copies)
        self.dispatch_hooks: list[Callable[[Application, InstanceRecord], None]] = []
        #: the ``on_exit`` of every primary incarnation: one bound method,
        #: not a closure per instance that outlives the instance's run
        self.on_instance_exit = self._route_exit
        #: the event-log handles of the dispatch and of every instance
        self.task_categories = TaskCategories.of(sim.log)
        self._dispatches = sim.log.category("runtime.dispatch", DISPATCH_FIELDS)
        # live-telemetry handles, cached once (None when telemetry is off)
        tel = sim.telemetry
        #: the vMPI handles every instance counts into (see TaskInstance)
        self.vmpi_metrics = (
            (
                tel.counter("vmpi_sends_total", "vMPI Send syscalls"),
                tel.histogram(
                    "compute_burst_seconds", "simulated duration of Compute bursts"
                ),
            )
            if tel is not None else None
        )
        self._m_dispatches = (
            tel.counter("runtime_dispatches_total", "instance dispatches")
            if tel is not None else None
        )
        self._m_task_duration = (
            tel.histogram(
                "task_duration_seconds", "dispatch to exit", labels=("task",)
            )
            if tel is not None else None
        )
        self._m_task_exits = (
            tel.counter("tasks_exited_total", "instance exits", labels=("state",))
            if tel is not None else None
        )
        self._m_makespan = (
            tel.histogram("app_makespan_seconds", "submit to done")
            if tel is not None else None
        )
        self._m_apps = (
            tel.counter("apps_finished_total", "application completions", labels=("status",))
            if tel is not None else None
        )

    # ---------------------------------------------------------------- submit

    def submit(
        self,
        graph: TaskGraph,
        placement: Placement,
        params: dict[str, Any] | None = None,
        app_id: str | None = None,
        trace: TraceContext | None = None,
    ) -> Application:
        """Start an application; returns its tracking object immediately.

        *trace*, when given, parents the application's span under the
        caller's (the execution program passes its run-root span); a
        direct submit mints a fresh root trace, so every application is
        causally traceable either way.
        """
        graph.validate()
        if not placement.covers(graph):
            raise ConfigurationError(f"placement does not cover graph {graph.name!r}")
        app_id = app_id or self.sim.ids.next("app")
        if app_id in self.apps:
            # an exit finds its application by this id
            raise ConfigurationError(f"application {app_id!r} was already submitted")
        app = Application(app_id, graph, params)
        app.submitted_at = self.sim.now
        app.status = AppStatus.RUNNING
        app._placement = placement  # kept for successor dispatch
        if trace is not None:
            app.trace = trace.child(self.sim.ids.next("span"))
        else:
            app.trace = TraceContext(
                self.sim.ids.next("trace"), self.sim.ids.next("span")
            )
        self.apps[app_id] = app
        self.sim.emit("app.submit", app_id, tasks=len(graph), **app.trace.fields())
        for task in graph.roots():  # nothing holds them back
            self._dispatch_task(app, task)
        if not app.records:  # degenerate empty graph
            app._mark_complete(AppStatus.DONE, self.sim.now)
        return app

    def terminate(self, app: Application) -> None:
        """Kill every live instance ("the execution program notifies all
        machines working on the application to terminate", §5)."""
        for record in app.records.values():
            if record.instance is not None and not record.instance.state.terminal:
                record.instance.kill("app-terminated")
            for copy in record.redundant_copies:
                if not copy.state.terminal:
                    copy.kill("app-terminated")
        app._mark_complete(AppStatus.TERMINATED, self.sim.now)
        self.checkpoints.drop_app(app.id)
        self._destroy_channels(app)
        self.sim.emit("app.terminate", app.id, **trace_fields(app.trace))

    # -------------------------------------------------------------- dispatch

    def _dispatch_task(self, app: Application, task: str) -> None:
        placement = app._placement
        for record in app._by_task[task]:  # rank order
            self.dispatch_instance(app, record, placement.host_for(task, record.rank))

    def dispatch_instance(
        self,
        app: Application,
        record: InstanceRecord,
        host_name: str,
        restored_state: Any = None,
    ) -> TaskInstance:
        """Create and start one instance of ``record`` on *host_name*.

        Also used by migration schemes for re-dispatch: pass
        ``restored_state`` to hand the program its last checkpoint.
        """
        # A task is independent of every other while it executes (TSIA), so
        # all of its wiring is fixed here; nothing below copies the graph.
        task, rank = record.task, record.rank
        graph = app.graph
        node = graph.task(task)
        host = self.network.host(host_name)
        # the allocation epoch doubles as the incarnation number
        incarnation = record.epoch + 1
        sim = self.sim

        # every incarnation gets its own span under the application span;
        # `after` names the predecessor-instance spans whose completion
        # released this dispatch (the causal edges of the critical path)
        by_task = app._by_task
        after = tuple([
            trace.span_id
            for pred in graph.predecessor_view(task)
            for r in by_task[pred]
            if r.instance is not None and (trace := r.instance.ctx.trace) is not None
        ])
        span = app.trace.child(sim.ids.next("span")) if app.trace is not None else None
        mpi_channel, named = self._wire_channels(app, node, rank)
        stage_in = self._stage_in_delay(app, node, host_name)
        binary = self._binary_delay(node, host)

        instance = TaskInstance(
            f"{app.id}.{task}.{rank}#{incarnation}",
            TaskContext(app.id, task, rank, node.instances, app.params, restored_state, span),
            node,
            named,
            mpi_channel,
            self.checkpoints,
            self.on_instance_exit,
            stage_in + binary,
            self.vmpi_metrics,
            categories=self.task_categories,
        )
        instance.allocation_epoch = incarnation
        up = host.up
        if up:
            address = host.spawn(instance)
        else:
            # nothing starts on a host that is down: the instance is placed
            # there, not spawned, and fails below (docs/FAULTS.md, issue 6)
            instance.host = host
            address = instance.address
        # point this rank's receive ports at the new incarnation
        if mpi_channel is not None:
            mpi_channel.bind(str(rank), address)
        for channel in named.values():
            channel.bind(f"{task}[{rank}]", address)

        hb = sim.hb
        if hb is not None:
            hb.write(f"epoch:{app.id}:{task}:{rank}", "R003", "runtime.dispatch_commit")
        record.instance = instance
        record.epoch = incarnation
        app.commit_state(record, _PENDING)
        record.host_name = host_name
        record.dispatched_at = sim.now
        record.placements.append(host_name)
        app.mark_dispatched(record)
        dispatches = self._m_dispatches
        if dispatches is not None:
            (dispatches.child or dispatches.solo()).inc()
            if record.duration is None:
                record.duration = self._m_task_duration.labels(task)
        sim.emit(
            self._dispatches,
            app.id,
            task,
            rank,
            host_name,
            stage_in,
            binary,
            incarnation,
            after,
            *instance._trace_values,
        )
        for hook in self.dispatch_hooks:
            hook(app, record)
        if not up:
            sim.emit("runtime.host_down", app.id, task=task, rank=rank,
                     host=host_name, incarnation=incarnation)
            instance.refuse(SimulationError(f"host {host_name} is down"))
        return instance

    def _wire_channels(
        self, app: Application, node: "TaskNode", rank: int
    ) -> tuple[Channel | None, dict[str, Channel]]:
        """The channels of one instance. Those the runtime mints under the
        application's id are recorded on it and destroyed with it; a channel
        an arc names explicitly is its creator's to destroy."""
        mpi_channel = None
        if node.instances > 1:
            cname = f"{app.id}.{node.name}.mpi"
            app.minted_channels.add(cname)
            mpi_channel = self.channels.get_or_create(cname)
        named: dict[str, Channel] = {}
        for arcs in app.graph.stream_arcs(node.name):
            for arc in arcs:
                cname = arc.channel
                if not cname:
                    cname = f"{app.id}.{arc.src}->{arc.dst}"
                    app.minted_channels.add(cname)
                named[cname] = self.channels.get_or_create(cname)
        return mpi_channel, named

    def _destroy_channels(self, app: Application) -> None:
        """*app* reached a terminal status: "the runtime system will be
        responsible for the creation, placement, and destruction of" its
        channels (§4.2). Instances still winding down keep the channel
        objects they hold; the manager stops tracking (and rebinding) them."""
        for cname in app.minted_channels:
            self.channels.destroy(cname)
        app.minted_channels.clear()

    def _stage_in_delay(self, app: Application, node: "TaskNode", host_name: str) -> float:
        """Max transfer time of incoming DATA-arc volumes produced on other
        hosts (transfers proceed in parallel). Transfer time rises with
        volume, so that is the transfer time of the largest such volume:
        volumes are compared, and one is divided."""
        volume = 0
        by_task = app._by_task
        for arc in app.graph.arcs_into_view(node.name):
            if arc.volume > volume and arc.kind is _DATA:
                for r in by_task[arc.src]:
                    producer = r.host_name
                    if producer is not None and producer != host_name:
                        volume = arc.volume
                        break
        if not volume:
            return 0.0
        latency = self.network.latency
        return volume / latency.bandwidth + latency.base_latency

    def _binary_delay(self, node: "TaskNode", host: "Host") -> float:
        if self.binary_service is None or host.machine is None:
            return 0.0
        return self.binary_service.load_delay(node, host.machine, self.sim.now)

    # ------------------------------------------------------------ transitions

    def record_of(self, instance: TaskInstance) -> tuple[Application, InstanceRecord]:
        """The application and record *instance* runs for: its context names
        them (application ids are unique per manager)."""
        ctx = instance.ctx
        app = self.apps[ctx.app]
        return app, app.records[ctx.task, ctx.rank]

    def _route_exit(self, instance: TaskInstance, state: InstanceState, outcome: Any) -> None:
        """``on_exit`` of every primary."""
        app, record = self.record_of(instance)
        self._instance_exited(app, record, instance, state, outcome)

    def _instance_exited(
        self,
        app: Application,
        record: InstanceRecord,
        instance: TaskInstance,
        state: InstanceState,
        outcome: Any,
    ) -> None:
        if record.instance is not instance:
            # a superseded incarnation (killed during migration) — ignore
            return
        hb = self.sim.hb
        if hb is not None:
            # a stale incarnation's exit racing a re-dispatch is absorbed by
            # the allocation-epoch guard just below (runtime.stale_commit)
            hb.write(  # hbrace: ok(R003)
                f"epoch:{app.id}:{record.task}:{record.rank}",
                "R003", "runtime.exit_commit",
            )
        if getattr(instance, "allocation_epoch", record.epoch) != record.epoch:
            # an exit from a stale allocation epoch must not commit: the
            # failover layer already re-dispatched this (task, rank)
            self.sim.emit(
                "runtime.stale_commit", app.id, task=record.task, rank=record.rank,
                epoch=getattr(instance, "allocation_epoch", None),
                current=record.epoch,
            )
            return
        released = app.commit_state(record, state)
        now = record.finished_at = self.sim.now
        if self._m_task_exits is not None:
            self._m_task_exits.labels(state.value).inc()
            if state is _DONE and record.dispatched_at is not None:
                record.duration.observe(now - record.dispatched_at)
        if state is _DONE:
            record.result = instance.result
            if record.redundant_copies:
                self._kill_redundant_copies(record, "primary-done")
            self._advance(app, released)
        elif state is _FAILED:
            if app.status.terminal:
                return
            handled = any(h(app, record, instance) for h in self.failure_handlers)
            if not handled:
                app._mark_complete(AppStatus.FAILED, self.sim.now)
                self._destroy_channels(app)
                if self._m_apps is not None:
                    self._m_apps.labels(AppStatus.FAILED.value).inc()
                self.sim.emit("app.failed", app.id, task=record.task, rank=record.rank,
                              **trace_fields(app.trace))
        # KILLED incarnations are superseded deliberately; nothing to do.

    def _kill_redundant_copies(self, record: InstanceRecord, reason: str) -> None:
        # iterate a snapshot: each kill() re-enters the copy's on_exit, which
        # may remove it from the live list
        for copy in list(record.redundant_copies):
            if not copy.state.terminal:
                copy.kill(reason)
        record.redundant_copies.clear()

    def _advance(self, app: Application, released: Sequence[str]) -> None:
        """After an instance committed DONE: complete the application, or
        dispatch the tasks *released* by that commit (those it was the last
        unfinished predecessor of, see :meth:`Application.commit_state`)."""
        if app.status.terminal:
            return
        if app.all_done:
            app._mark_complete(AppStatus.DONE, self.sim.now)
            if self._m_apps is not None:
                self._m_apps.labels(AppStatus.DONE.value).inc()
                if app.makespan is not None:
                    self._m_makespan.observe(app.makespan)
            self.sim.emit("app.done", app.id, makespan=app.makespan,
                          **trace_fields(app.trace))
            self.checkpoints.drop_app(app.id)
            self._destroy_channels(app)
            return
        for task in released:
            # a task is released again when a predecessor is re-run after
            # completing (failover); it must not be dispatched twice
            if app.task_untouched(task):
                self._dispatch_task(app, task)

    # ------------------------------------------------------------- utilities

    def add_failure_handler(self, handler: FailureHandler) -> None:
        self.failure_handlers.append(handler)

    def instances_on(self, host_name: str) -> list[TaskInstance]:
        """Live VCE task instances on *host_name*, redundant copies
        included, read from the host's own process table (see
        :func:`~repro.runtime.instance.live_instances`)."""
        return live_instances(self.network.host(host_name))

    def rebind_instance(self, old_address: Any, new_address: Any) -> int:
        """Channel handoff after a migration (counts ports moved)."""
        return self.channels.rebind_everywhere(old_address, new_address)
