"""Arcs: the communication and synchronization relationships among tasks."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.util.errors import TaskGraphError


class ArcKind(enum.Enum):
    """What an arc means for the runtime.

    - DEPENDENCY: pure precedence — dst may not start until src completes
      (these arcs must form a DAG).
    - DATA: src's output files/values feed dst (implies precedence).
    - STREAM: src and dst run concurrently and exchange messages over a
      channel (no precedence; may form cycles, e.g. request/reply pairs).
    """

    DEPENDENCY = "dependency"
    DATA = "data"
    STREAM = "stream"


# ``is_precedence`` is a plain member attribute, not a property: graph
# construction tests it once per arc, and descriptor dispatch through the
# enum metaclass dominates that loop on a wide graph.
for _kind in ArcKind:
    _kind.is_precedence = _kind in (ArcKind.DEPENDENCY, ArcKind.DATA)
del _kind


@dataclass(frozen=True, slots=True)
class Arc:
    """A directed arc between two named tasks.

    Attributes:
        src / dst: task names.
        kind: see :class:`ArcKind`.
        volume: bytes transferred over the arc (DATA: once at completion;
            STREAM: an estimate of total traffic for placement decisions).
        channel: optional explicit channel name for STREAM arcs; arcs naming
            the same channel share one logical transport medium.
    """

    src: str
    dst: str
    kind: ArcKind = ArcKind.DEPENDENCY
    volume: int = 0
    channel: str | None = None

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise TaskGraphError(f"self-arc on task {self.src!r}")
        if self.volume < 0:
            raise TaskGraphError(f"arc {self.src}->{self.dst}: negative volume")
