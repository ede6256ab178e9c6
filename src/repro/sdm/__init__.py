"""The Software Development Module (SDM).

"The SDM consists of three layers, each of which is responsible for
attaching specific information to the task graph." (§3.1.1)

- :class:`ProblemSpecification` — "extracting the requirements of the
  problem to be solved and formalizing its functional flow ... by creating
  the initial task graph".
- :class:`DesignStage` — classifies each task by problem architecture
  (synchronous / loosely synchronous / asynchronous), "concentrat[ing] on
  the architecture of the problem and not the machine".
- :class:`CodingLevel` — attaches architecture-independent implementations
  (program bodies + language tags) and user hints.
- :class:`SoftwareDevelopmentModule` — runs the three layers in order and
  verifies the completed task graph carries everything the EXM needs.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "problemspec": ("ProblemSpecification",),
    "design": ("DesignStage",),
    "coding": ("CodingLevel", "SourceModule"),
    "module": ("SoftwareDevelopmentModule",),
})
