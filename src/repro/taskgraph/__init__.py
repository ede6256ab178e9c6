"""Task graphs — the VCE's application representation.

"A VCE application is broken down into functional components called tasks,
which are represented visually using a task graph. ... The task graph defines
the input, output, and function of each task. The nodes in the task graph are
connected by arcs which define the communication and synchronization
relationships among the tasks." (§3.1)

The SDM layers annotate this graph (problem class, sources, hints); the EXM
uses it to compile, place, and run the application.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "node": ("ExecutionHints", "ProblemClass", "TaskNature", "TaskNode"),
    "arc": ("Arc", "ArcKind"),
    "graph": ("TaskGraph",),
    "precedence": ("DependencyCounters",),
})
