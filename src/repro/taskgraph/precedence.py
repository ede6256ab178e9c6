"""Dependency counters: which tasks a completion releases.

A task may start when every instance of every precedence predecessor is
done. Asking that question of the graph costs in-degree per successor per
completion; counting it costs one decrement per arc, ever: each task carries
the number of its instances still to finish and the number of predecessor
tasks still unfinished, and the completion that zeroes the second number is
the one that releases the task.
"""

from __future__ import annotations

from typing import Sequence

from repro.taskgraph.graph import TaskGraph


class DependencyCounters:
    """Precedence state of one run of *graph* (see module docstring).

    The graph must not gain tasks or arcs while a run is counted.
    """

    def __init__(self, graph: TaskGraph) -> None:
        self._graph = graph
        #: instances of each task not yet done
        self.remaining: dict[str, int] = {n.name: n.instances for n in graph}
        #: distinct predecessor tasks of each task not yet fully done.
        #: Tasks, not arcs: a successor reached by parallel arcs is released
        #: at its first place in the completed task's successor order
        self.blocked: dict[str, int] = {
            n.name: len(set(graph.predecessors(n.name))) for n in graph
        }

    def instance_done(self, task: str) -> Sequence[str]:
        """One instance of *task* finished. Returns the tasks this released,
        in *task*'s successor-arc order (empty unless it was the last
        instance)."""
        left = self.remaining[task] - 1
        self.remaining[task] = left
        if left:
            return ()
        released = []
        blocked = self.blocked
        for successor in dict.fromkeys(self._graph.successor_view(task)):
            count = blocked[successor] - 1
            blocked[successor] = count
            if count == 0:
                released.append(successor)
        return released

    def instance_undone(self, task: str) -> None:
        """A finished instance of *task* is to run again (re-dispatch of a
        done record): exactly undoes :meth:`instance_done`."""
        left = self.remaining[task]
        self.remaining[task] = left + 1
        if left == 0:
            blocked = self.blocked
            for successor in dict.fromkeys(self._graph.successor_view(task)):
                blocked[successor] += 1
