"""LocalBackend: execute task graphs with *real* Python callables.

The simulator executes modelled work; this backend executes actual
functions on a pool of worker threads — one worker per "machine" — while
reusing the same task-graph, placement, and precedence machinery. It is
the reproduction's stand-in for the paper's real prototype deployment
(daemons on a workstation LAN), and lets the examples do genuine
computation.

Execution model:

- each placed machine name owns one worker thread (machines execute their
  instances serially, like a busy workstation);
- a task instance runs when every precedence predecessor of its task has
  finished; it is called as ``fn(LocalContext)`` and its return value is
  the instance result;
- downstream tasks see predecessor outputs in ``ctx.inputs`` —
  ``{pred_task_name: [rank-ordered results]}``;
- any instance raising fails the application (remaining work is skipped).

This backend intentionally supports plain callables, not the generator
syscall programs of the simulator: real code blocks on real work.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.runtime.manager import Placement
from repro.taskgraph import DependencyCounters, TaskGraph
from repro.util.errors import ConfigurationError, VCEError


class LocalExecutionError(VCEError):
    """An instance raised during local execution."""


@dataclass
class LocalContext:
    """What a locally-executed task callable receives."""

    app: str
    task: str
    rank: int
    size: int
    machine: str
    params: dict[str, Any] = field(default_factory=dict)
    inputs: dict[str, list[Any]] = field(default_factory=dict)


class _Worker:
    """One machine: a thread draining a serial work queue."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._queue: "queue.Queue[tuple[Callable[[], None], None] | None]" = queue.Queue()
        self._thread = threading.Thread(target=self._loop, name=f"vce-{name}", daemon=True)
        self._thread.start()

    def submit(self, job: Callable[[], None]) -> None:
        self._queue.put((job, None))

    def _loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            job, _ = item
            job()

    def shutdown(self) -> None:
        self._queue.put(None)
        self._thread.join(timeout=5.0)


class LocalBackend:
    """Run annotated task graphs on real threads (see module docstring).

    Args:
        machine_names: the machines this backend embodies; a placement may
            only name these.
    """

    def __init__(self, machine_names: list[str]) -> None:
        if not machine_names:
            raise ConfigurationError("LocalBackend needs at least one machine")
        if len(set(machine_names)) != len(machine_names):
            raise ConfigurationError("duplicate machine names")
        self.machine_names = list(machine_names)
        self._workers = {name: _Worker(name) for name in machine_names}
        self._closed = False

    # ------------------------------------------------------------------ run

    def run(
        self,
        graph: TaskGraph,
        placement: Placement,
        programs: dict[str, Callable[[LocalContext], Any]],
        params: dict[str, Any] | None = None,
        app_id: str = "local-app",
        timeout: float = 60.0,
    ) -> dict[str, list[Any]]:
        """Execute *graph* and return ``{task: rank-ordered results}``.

        Raises :class:`LocalExecutionError` if any instance raised, with
        the original exception chained.
        """
        if self._closed:
            raise ConfigurationError("backend is closed")
        graph.validate()
        if not placement.covers(graph):
            raise ConfigurationError("placement does not cover the graph")
        missing = [t.name for t in graph if t.name not in programs]
        if missing:
            raise ConfigurationError(f"no local programs for tasks: {missing}")
        for (task, rank), machine in placement.assignments.items():
            if machine not in self._workers:
                raise ConfigurationError(
                    f"placement puts {task}[{rank}] on unknown machine {machine!r}"
                )

        lock = threading.Lock()
        done_event = threading.Event()
        results: dict[str, list[Any]] = {
            node.name: [None] * node.instances for node in graph
        }
        precedence = DependencyCounters(graph)
        unfinished = sum(node.instances for node in graph)
        failure: list[BaseException] = []

        def _launch(tasks: Iterable[str]) -> None:
            for task in tasks:
                for rank in range(graph.task(task).instances):
                    _dispatch(task, rank)

        def _dispatch(task: str, rank: int) -> None:
            node = graph.task(task)
            machine = placement.host_for(task, rank)
            ctx = LocalContext(
                app=app_id,
                task=task,
                rank=rank,
                size=node.instances,
                machine=machine,
                params=dict(params or {}),
                inputs={p: list(results[p]) for p in graph.predecessors(task)},
            )
            fn = programs[task]

            def job() -> None:
                nonlocal unfinished
                try:
                    value = fn(ctx)
                except BaseException as err:  # noqa: BLE001 - reported to caller
                    with lock:
                        failure.append(err)
                    done_event.set()
                    return
                with lock:
                    results[task][rank] = value
                    released = precedence.instance_done(task)
                    unfinished -= 1
                    if failure:
                        return
                    _launch(released)
                    if not unfinished:
                        done_event.set()

            self._workers[machine].submit(job)

        with lock:
            _launch(graph.roots())
            if not unfinished:  # empty graph
                done_event.set()

        if not done_event.wait(timeout=timeout):
            raise LocalExecutionError(f"local execution timed out after {timeout}s")
        if failure:
            raise LocalExecutionError("a task instance raised") from failure[0]
        return results

    # ------------------------------------------------------------- lifecycle

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            for worker in self._workers.values():
                worker.shutdown()

    def __enter__(self) -> "LocalBackend":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def round_robin_local_placement(graph: TaskGraph, machine_names: list[str]) -> Placement:
    """Convenience: spread instances across the backend's machines."""
    placement = Placement()
    i = 0
    for node in graph:
        for rank in range(node.instances):
            placement.assign(node.name, rank, machine_names[i % len(machine_names)])
            i += 1
    return placement
