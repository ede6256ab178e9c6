"""Task graphs — the VCE's application representation.

"A VCE application is broken down into functional components called tasks,
which are represented visually using a task graph. ... The task graph defines
the input, output, and function of each task. The nodes in the task graph are
connected by arcs which define the communication and synchronization
relationships among the tasks." (§3.1)

The SDM layers annotate this graph (problem class, sources, hints); the EXM
uses it to compile, place, and run the application.
"""

from repro.taskgraph.node import (
    ExecutionHints,
    ProblemClass,
    TaskNature,
    TaskNode,
)
from repro.taskgraph.arc import Arc, ArcKind
from repro.taskgraph.graph import TaskGraph
from repro.taskgraph.precedence import DependencyCounters

__all__ = [
    "TaskGraph",
    "DependencyCounters",
    "TaskNode",
    "Arc",
    "ArcKind",
    "ProblemClass",
    "TaskNature",
    "ExecutionHints",
]
