"""Communicators and task contexts.

A :class:`Communicator` maps the integer ranks of one task's instances onto
receive ports of a channel, so MPI-style ``Send(dst=rank)`` resolves to a
directed channel send. The :class:`TaskContext` is the object handed to a
task program factory; it carries identity, parameters, and restored
checkpoint state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.util.errors import CommunicationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.channels.channel import Channel
    from repro.trace.context import TraceContext


class Communicator:
    """Rank ↔ port bookkeeping over one channel.

    Rank *r* of task *t* owns the receive port named ``"r"`` on the task's
    MPI channel. The executor attaches/rebinds ports as instances are
    placed and migrated.
    """

    def __init__(self, channel: "Channel", size: int) -> None:
        if size < 1:
            raise CommunicationError("communicator size must be >= 1")
        self.channel = channel
        self.size = size

    def port_name(self, rank: int) -> str:
        if not 0 <= rank < self.size:
            raise CommunicationError(
                f"rank {rank} out of range for communicator of size {self.size}"
            )
        return str(rank)


@dataclass(slots=True)
class TaskContext:
    """Everything a task program knows about itself.

    Attributes:
        app: application id.
        task: task name.
        rank: this instance's index within the task (0-based).
        size: total instances of the task.
        params: application-level parameters (from the submitting user).
        restored_state: last checkpoint state when restarted from a
            checkpoint, else None — "may require the cooperation of the
            task involved" (§4.4): programs that want cheap checkpoint
            migration consult this and skip completed work.
    """

    app: str
    task: str
    rank: int = 0
    size: int = 1
    params: dict[str, Any] = field(default_factory=dict)
    restored_state: Any = None
    #: this incarnation's span in the application's trace; rides every
    #: channel send so receivers can log the causal sender
    trace: "TraceContext | None" = None

    @property
    def instance_name(self) -> str:
        return f"{self.app}.{self.task}.{self.rank}"
