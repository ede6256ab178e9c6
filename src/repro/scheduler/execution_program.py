"""The execution program (§5 ``execute()``).

Runs on the user's workstation. Walks the application's modules, sends one
:class:`ResourceRequest` per machine-class group, collects
allocation replies, maps bids to task instances with a placement policy,
submits the placement to the runtime manager and waits for application
termination.  The paper's pseudocode reads the script line by line, sends
each request to its group and receives the reply (terminating on an
allocation error), then sends the execution info to each group, starts the
execution, waits for application termination and sends a terminate
message.

Of those steps only the request and its reply (an
:class:`AllocationReply`, or an allocation error) are messages here.  The
execution-info and terminate sends are not: a daemon bids what its own
machine's process table holds (:func:`repro.runtime.instance.live_instances`),
so an instance's spawn tells its daemon what arrived and its exit what
left, whether the instance came from an allocation or a failover
re-dispatch.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable

from repro.machines.archclass import MachineClass
from repro.netsim.host import Address
from repro.netsim.process import SimProcess
from repro.runtime.manager import Placement
from repro.scheduler.directory import GroupDirectory
from repro.scheduler.messages import (
    AllocationError_,
    AllocationReply,
    MachineBid,
    ModuleNeed,
    ResourceRequest,
    SetPriority,
)
from repro.scheduler.policies import PlacementPolicy, load_sorted_assignment
from repro.trace.context import TraceContext, trace_fields
from repro.util.errors import AllocationError, VCEError

if TYPE_CHECKING:  # pragma: no cover
    from repro.machines.database import MachineDatabase
    from repro.runtime.app import Application
    from repro.runtime.manager import RuntimeManager
    from repro.taskgraph import TaskGraph


class RunState(enum.Enum):
    ALLOCATING = "allocating"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"


@dataclass
class AppRun:
    """Outcome handle returned by :meth:`ExecutionProgram` use."""

    state: RunState = RunState.ALLOCATING
    app: "Application | None" = None
    error: str | None = None
    requested_at: float | None = None
    allocated_at: float | None = None
    completed_at: float | None = None
    placement: Placement | None = None

    @property
    def allocation_latency(self) -> float | None:
        if self.requested_at is None or self.allocated_at is None:
            return None
        return self.allocated_at - self.requested_at


class ExecutionProgram(SimProcess):
    """See module docstring.

    Args:
        name: process name on the user's workstation host.
        graph: the fully annotated task graph.
        class_map: task → machine class to request from (None = LOCAL:
            run on this workstation without bidding).
        runtime: the runtime manager that will dispatch instances.
        directory: group-leader lookup.
        database: machine capability lookup (feasibility filtering of bids).
        policy: bid→instance assignment policy (default: the paper's
            load-sorted rule).
        ranges: optional task → (min, max) instance ranges (the planned
            ``ASYNC 5-`` / ``SYNC 5,10`` vocabulary); absent tasks use the
            graph's fixed instance count.
        params: application parameters forwarded to task contexts.
        priority: request priority (aging starts from here, §4.3).
        queue_if_insufficient: ask leaders to queue unsatisfiable requests
            instead of failing the run.
        on_finished: callback ``(AppRun)`` at DONE or FAILED.
    """

    REQUEST_TIMEOUT = 5.0
    MAX_REQUEST_RETRIES = 5
    #: retry timeouts grow REQUEST_TIMEOUT * RETRY_BACKOFF**n (capped), with
    #: up to RETRY_JITTER of proportional seeded jitter so retransmission
    #: storms from many programs decorrelate
    RETRY_BACKOFF = 1.6
    MAX_RETRY_DELAY = 30.0
    RETRY_JITTER = 0.1

    def __init__(
        self,
        name: str,
        graph: "TaskGraph",
        class_map: dict[str, MachineClass | None],
        runtime: "RuntimeManager",
        directory: GroupDirectory,
        database: "MachineDatabase",
        policy: PlacementPolicy = load_sorted_assignment,
        ranges: dict[str, tuple[int, int]] | None = None,
        params: dict[str, Any] | None = None,
        priority: float = 0.0,
        queue_if_insufficient: bool = False,
        on_finished: Callable[[AppRun], None] | None = None,
    ) -> None:
        super().__init__(name)
        self.graph = graph
        self.class_map = dict(class_map)
        self.runtime = runtime
        self.directory = directory
        self.database = database
        self.policy = policy
        self.ranges = dict(ranges or {})
        self.params = dict(params or {})
        self.priority = priority
        self.queue_if_insufficient = queue_if_insufficient
        self.on_finished = on_finished
        self.run_handle = AppRun()
        self.app_id: str | None = None
        #: root span of this run's trace (minted in on_start)
        self.trace: TraceContext | None = None
        self._pending: dict[str, MachineClass] = {}  # req_id -> class
        self._replies: dict[MachineClass, tuple[MachineBid, ...]] = {}
        self._retries: dict[str, int] = {}
        self._req_spans: dict[str, TraceContext] = {}  # req_id -> alloc span
        self._request_cache: dict[str, ResourceRequest] = {}
        self._tasks_by_class: dict[MachineClass, list[str]] = {}
        # (bids identity, requirements signature) -> feasible machine list;
        # tasks with identical requirements share the returned list object,
        # letting placement policies cache derived sets by id()
        self._feas_cache: dict[tuple, list[str]] = {}

    # ---------------------------------------------------------------- start

    def on_start(self) -> None:
        self.app_id = self.sim.ids.next("app")
        self._jitter_rng = self.sim.rng.stream(f"exec.jitter.{self.name}")
        self.trace = TraceContext(self.sim.ids.next("trace"), self.sim.ids.next("span"))
        self.emit("exec.submit", app=self.app_id, **self.trace.fields())
        self.run_handle.requested_at = self.now
        known = {n.name for n in self.graph}
        missing = [t for t in self.class_map if t not in known]
        if missing:
            self._fail(f"class map names unknown tasks: {missing}")
            return
        by_class: dict[MachineClass, list[str]] = defaultdict(list)
        for node in self.graph:
            cls = self.class_map.get(node.name)
            if cls is not None:
                by_class[cls].append(node.name)
        self._tasks_by_class = dict(by_class)
        if not by_class:
            # purely local application
            self._allocate_and_go()
            return
        # batch fan-out: validate and construct every request before the
        # first send so a missing group fails the run without half the
        # leaders already bidding on a doomed application
        requests = []
        for cls, tasks in by_class.items():
            if not self.directory.has_group(cls):
                self._fail(f"no {cls} group is on line")
                return
            requests.append(self._build_request(cls, tasks))
        for request in requests:
            self._send_request(request)

    def _build_request(self, cls: MachineClass, tasks: list[str]) -> ResourceRequest:
        modules = []
        for task in tasks:
            node = self.graph.task(task)
            lo, hi = self.ranges.get(task, (node.instances, node.instances))
            modules.append(
                ModuleNeed(task, lo, hi, node.hardware_requirements(), self.priority)
            )
        req_id = self.sim.ids.next(f"rr.{self.name}")
        assert self.trace is not None
        req_span = self.trace.child(self.sim.ids.next("span"))
        self._req_spans[req_id] = req_span
        return ResourceRequest(
            req_id=req_id,
            app=self.app_id or "?",
            machine_class=cls,
            modules=tuple(modules),
            reply_to=self.address,
            priority=self.priority,
            queue_if_insufficient=self.queue_if_insufficient,
            trace=req_span,
            issued_at=self.now,
        )

    def _send_request(self, request: ResourceRequest) -> None:
        cls = request.machine_class
        req_id = request.req_id
        self._pending[req_id] = cls
        self.emit("exec.request", app=self.app_id, cls=cls.value, req_id=req_id,
                  needed=request.total_min, **trace_fields(request.trace))
        self.send(self.directory.leader(cls), request, size=512)
        self.set_timer(self.REQUEST_TIMEOUT, f"reqto:{req_id}")
        self._request_cache[req_id] = request
        # this program, not the leader's queue, is what keeps the request
        # alive: a new leader is sent every request still outstanding
        self.directory.watch_leader(self._on_leader_change)

    def _on_leader_change(self, cls: MachineClass, leader: Address) -> None:
        for req_id, pending_cls in self._pending.items():
            if pending_cls is cls:
                self.send(leader, self._request_cache[req_id], size=512)

    # -------------------------------------------------------------- replies

    def on_message(self, src: Address, payload: Any) -> None:
        if isinstance(payload, AllocationReply):
            cls = self._pending.pop(payload.req_id, None)
            if cls is None:
                return
            self.cancel_timer(f"reqto:{payload.req_id}")
            self._replies[cls] = payload.bids
            self.emit("exec.reply", app=self.app_id, cls=cls.value, bids=len(payload.bids),
                      req_id=payload.req_id,
                      **trace_fields(self._req_spans.get(payload.req_id)))
            if not self._pending:
                self.directory.unwatch_leader(self._on_leader_change)
                if self.run_handle.state is RunState.ALLOCATING:
                    self._allocate_and_go()
        elif isinstance(payload, SetPriority):
            # the leader applied a priority change: a re-send carries it
            if payload.req_id in self._pending:
                cache = self._request_cache
                cache[payload.req_id] = replace(cache[payload.req_id], priority=payload.priority)
        elif isinstance(payload, AllocationError_):
            cls = self._pending.get(payload.req_id)
            if cls is None:
                return
            if payload.queued:
                # the leader holds the request in its aging queue; a later
                # AllocationReply will arrive when capacity frees up
                self.cancel_timer(f"reqto:{payload.req_id}")
                self.emit("exec.queued", app=self.app_id, cls=cls.value,
                          **trace_fields(self._req_spans.get(payload.req_id)))
                return
            self._pending.pop(payload.req_id, None)
            self._fail(
                f"allocation error from {cls} group: requested "
                f"{payload.requested}, available {payload.available}"
            )

    def on_timer(self, key: str) -> None:
        if not key.startswith("reqto:"):
            return
        req_id = key[6:]
        cls = self._pending.get(req_id)
        if cls is None:
            return
        retries = self._retries.get(req_id, 0) + 1
        self._retries[req_id] = retries
        if retries > self.MAX_REQUEST_RETRIES:
            self._fail(f"group {cls} never replied (leader unreachable?)")
            return
        # leader may have failed: re-resolve and retransmit with
        # exponentially backed-off, jittered timeout
        request = self._request_cache.get(req_id)
        if request is None or not self.directory.has_group(cls):
            self._fail(f"no {cls} group is on line")
            return
        delay = min(
            self.MAX_RETRY_DELAY, self.REQUEST_TIMEOUT * self.RETRY_BACKOFF**retries
        )
        delay *= 1.0 + self.RETRY_JITTER * self._jitter_rng.random()
        self.emit("exec.retry_request", app=self.app_id, cls=cls.value, attempt=retries,
                  timeout=round(delay, 6),
                  **trace_fields(self._req_spans.get(req_id)))
        self.send(self.directory.leader(cls), request, size=512)
        self.set_timer(delay, key)

    # ------------------------------------------------------------ placement

    def _allocate_and_go(self) -> None:
        try:
            placement, chosen_counts = self._build_placement()
        except AllocationError as err:
            self._fail(str(err))
            return
        self.run_handle.allocated_at = self.now
        self.run_handle.placement = placement
        # instance-count ranges resolved: fix the graph before submit
        for task, count in chosen_counts.items():
            self.graph.task(task).instances = count
        # StartExecution(): the runtime spawns each instance on its machine,
        # whose daemon reads it from the host's process table
        self.run_handle.state = RunState.RUNNING
        try:
            app = self.runtime.submit(
                self.graph, placement, self.params, app_id=self.app_id,
                trace=self.trace,
            )
        except VCEError as err:
            # e.g. dispatch found no compiler for a chosen machine: surface
            # as a failed run instead of crashing the event loop
            self._fail(f"dispatch failed: {err}")
            return
        self.run_handle.app = app
        self.emit("exec.start", app=app.id, instances=len(placement.assignments),
                  **trace_fields(self.trace))
        # WaitForApplicationTermination()
        app.on_complete(self._app_finished)

    def _build_placement(self) -> tuple[Placement, dict[str, int]]:
        """Map bids to instances via the policy; raises AllocationError if
        any required instance cannot be placed."""
        placement = Placement()
        chosen_counts: dict[str, int] = {}
        # local tasks run on this workstation
        for node in self.graph:
            if self.class_map.get(node.name) is None:
                chosen_counts[node.name] = node.instances
                for rank in range(node.instances):
                    placement.assign(node.name, rank, self.host.name)
        # remote tasks per class
        for cls, bids in self._replies.items():
            tasks = self._tasks_by_class.get(cls, [])
            needs = []
            for task in tasks:
                node = self.graph.task(task)
                lo, hi = self.ranges.get(task, (node.instances, node.instances))
                candidates = self._feasible_machines(task, bids)
                count = min(hi, max(lo, len(candidates)))
                count = min(count, len(candidates)) if candidates else 0
                if count < lo:
                    raise AllocationError(
                        f"task {task!r} needs {lo} machines in {cls}, "
                        f"only {len(candidates)} feasible bids",
                        requested=lo,
                        available=len(candidates),
                    )
                chosen_counts[task] = max(count, 1) if lo == 0 else count
                for rank in range(count):
                    needs.append((task, rank, candidates))
            assignment = self.policy(needs, list(bids))
            unplaced = [n for n in needs if (n[0], n[1]) not in assignment]
            if unplaced:
                raise AllocationError(
                    f"policy left {len(unplaced)} instances unplaced in {cls}: "
                    f"{[(t, r) for t, r, _ in unplaced]}",
                    requested=len(needs),
                    available=len(needs) - len(unplaced),
                )
            for (task, rank), machine in assignment.items():
                placement.assign(task, rank, machine)
        return placement, chosen_counts

    def _feasible_machines(self, task: str, bids: tuple[MachineBid, ...]) -> list[str]:
        node = self.graph.task(task)
        reqs = {k: v for k, v in node.hardware_requirements().items() if k != "files"}
        # tasks sharing a requirements signature get the *same* list object,
        # so feasibility is checked once per distinct signature rather than
        # once per task, and policies can key caches on id(candidates)
        key = (id(bids), tuple(sorted((k, repr(v)) for k, v in reqs.items())))
        cached = self._feas_cache.get(key)
        if cached is not None:
            return cached
        database = self.database
        out = [b.machine for b in bids if database.get(b.machine).satisfies(reqs)]
        self._feas_cache[key] = out
        return out

    # ------------------------------------------------------------ completion

    def _app_finished(self, app: "Application") -> None:
        # SendTerminateMessage() is each instance's exit: it leaves its
        # host's process table, and with it the daemon's load
        self.run_handle.completed_at = self.now
        from repro.runtime.app import AppStatus

        self.run_handle.state = (
            RunState.DONE if app.status is AppStatus.DONE else RunState.FAILED
        )
        if self.run_handle.state is RunState.FAILED:
            self.run_handle.error = "application failed"
        self.emit("exec.finished", app=app.id, state=self.run_handle.state.value,
                  **trace_fields(self.trace))
        if self.on_finished is not None:
            self.on_finished(self.run_handle)

    def _fail(self, reason: str) -> None:
        if self.run_handle.state in (RunState.DONE, RunState.FAILED):
            return
        self.directory.unwatch_leader(self._on_leader_change)
        self.run_handle.state = RunState.FAILED
        self.run_handle.error = reason
        self.emit("exec.failed", app=self.app_id, reason=reason,
                  **trace_fields(self.trace))
        if self.on_finished is not None:
            self.on_finished(self.run_handle)
