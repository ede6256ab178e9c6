"""Application bookkeeping.

An :class:`Application` tracks the instances of one submitted task graph —
their placements, states, results, and timing — and reports completion.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.runtime.instance import InstanceState, TaskInstance
from repro.taskgraph import DependencyCounters, TaskGraph

if TYPE_CHECKING:  # pragma: no cover
    from repro.trace.context import TraceContext


class AppStatus(enum.Enum):
    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    TERMINATED = "terminated"


# ``terminal`` is a plain member attribute, not a property: status checks sit
# on per-event hot paths (samplers, watchdogs, dispatch) where descriptor
# dispatch through the enum metaclass is measurable.
for _status in AppStatus:
    _status.terminal = _status in (AppStatus.DONE, AppStatus.FAILED, AppStatus.TERMINATED)
del _status

# the states the per-instance path tests, bound once (see runtime/instance.py)
_PENDING, _DONE, _FAILED = InstanceState.PENDING, InstanceState.DONE, InstanceState.FAILED


@dataclass
class InstanceRecord:
    """The runtime manager's view of one task instance."""

    task: str
    rank: int
    state: InstanceState = InstanceState.PENDING
    host_name: str | None = None
    instance: TaskInstance | None = None
    result: Any = None
    dispatched_at: float | None = None
    finished_at: float | None = None
    placements: list[str] = field(default_factory=list)  # migration history
    redundant_copies: list[TaskInstance] = field(default_factory=list)
    #: allocation epoch — bumped on every (re-)dispatch; an exit only
    #: commits when its instance carries the record's current epoch, which
    #: makes completion at-most-once under failover re-dispatch
    epoch: int = -1
    #: the ``task_duration_seconds`` child of this task, resolved at
    #: dispatch: the exit observes into it and the watchdog reads the
    #: straggler baseline from it (None when telemetry is off)
    duration: Any = None

    @property
    def key(self) -> tuple[str, int]:
        return (self.task, self.rank)


class Application:
    """One submitted VCE application."""

    def __init__(self, app_id: str, graph: TaskGraph, params: dict[str, Any] | None = None):
        self.id = app_id
        self.graph = graph
        self.params = dict(params or {})
        self.status = AppStatus.PENDING
        self.submitted_at: float | None = None
        self.completed_at: float | None = None
        #: span covering this application's submit → completion (set by the
        #: runtime manager; every instance span is parented under it)
        self.trace: "TraceContext | None" = None
        self.records: dict[tuple[str, int], InstanceRecord] = {}
        self._by_task: dict[str, list[InstanceRecord]] = {}
        for node in graph:
            per_task = self._by_task[node.name] = []
            for rank in range(node.instances):
                record = InstanceRecord(node.name, rank)
                self.records[(node.name, rank)] = record
                per_task.append(record)
        #: count of records in DONE state; exact as long as every state
        #: change goes through :meth:`commit_state` (it does — the runtime
        #: manager and failover layers are the only writers)
        self._done_count = 0
        #: per-task instances left and unfinished predecessors, kept exact
        #: by :meth:`commit_state` like the count above
        self.precedence = DependencyCounters(graph)
        #: records that have been dispatched and whose state is not yet
        #: terminal (plus terminal records that still own redundant copies) —
        #: the telemetry sampler and watchdog scan these instead of all
        #: records, so per-tick cost tracks live work, not application size
        self.inflight: dict[tuple[str, int], InstanceRecord] = {}
        #: records currently in FAILED state (stranded-instance detection)
        self.failed: dict[tuple[str, int], InstanceRecord] = {}
        #: names of the channels the runtime minted under this application's
        #: id; it destroys them when the application reaches a terminal status
        self.minted_channels: set[str] = set()
        self._on_complete: list[Callable[["Application"], None]] = []

    # -- queries -----------------------------------------------------------

    def record(self, task: str, rank: int) -> InstanceRecord:
        return self.records[(task, rank)]

    def task_records(self, task: str) -> list[InstanceRecord]:
        return list(self._by_task.get(task, ()))

    def task_done(self, task: str) -> bool:
        """All instances of *task* completed successfully."""
        return self.precedence.remaining[task] == 0

    def task_untouched(self, task: str) -> bool:
        """No instance of *task* has been dispatched or left PENDING."""
        for r in self._by_task.get(task, ()):
            if r.dispatched_at is not None or r.state is not _PENDING:
                return False
        return True

    def mark_dispatched(self, record: InstanceRecord) -> None:
        """Register *record* as in flight (called by the runtime manager at
        every (re-)dispatch, after ``dispatched_at`` is set)."""
        self.inflight[record.key] = record

    def commit_state(self, record: InstanceRecord, state: InstanceState) -> Sequence[str]:
        """The single choke point for record state changes: keeps the O(1)
        done-count (behind :attr:`all_done`), the dependency counters and
        the in-flight/failed indexes exact. Writers must use this instead
        of assigning ``record.state`` directly.

        Returns the tasks this change released: those whose last unfinished
        predecessor it completed, in the completed task's successor-arc
        order (the runtime manager dispatches them)."""
        old = record.state
        if old is state:
            return ()
        record.state = state
        released: Sequence[str] = ()
        if state is _DONE:
            self._done_count += 1
            released = self.precedence.instance_done(record.task)
        elif old is _DONE:
            self._done_count -= 1
            self.precedence.instance_undone(record.task)
        if state is _FAILED:
            self.failed[record.key] = record
        elif old is _FAILED:
            self.failed.pop(record.key, None)
        if state.terminal:
            # keep records that still own live redundant copies visible to
            # the sampler; per-instance state checks filter the dead ones
            if not record.redundant_copies:
                self.inflight.pop(record.key, None)
        elif record.dispatched_at is not None:
            # failover absorbed a crash: the record is live again
            self.inflight[record.key] = record
        return released

    @property
    def all_done(self) -> bool:
        return self._done_count == len(self.records)

    @property
    def any_failed(self) -> bool:
        return bool(self.failed)

    def results(self, task: str) -> list[Any]:
        """Rank-ordered results of a completed task."""
        records = sorted(self.task_records(task), key=lambda r: r.rank)
        return [r.result for r in records]

    @property
    def makespan(self) -> float | None:
        if self.submitted_at is None or self.completed_at is None:
            return None
        return self.completed_at - self.submitted_at

    # -- completion ---------------------------------------------------------

    def on_complete(self, callback: Callable[["Application"], None]) -> None:
        self._on_complete.append(callback)
        if self.status.terminal:
            callback(self)

    def _mark_complete(self, status: AppStatus, time: float) -> None:
        if self.status.terminal:
            return
        self.status = status
        self.completed_at = time
        for callback in self._on_complete:
            callback(self)
