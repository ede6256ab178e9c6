"""Runtime syscalls yielded by task programs.

A task program is a generator; each ``yield`` hands the executor one of
these objects and (for value-producing calls like :class:`Recv`) receives
the result back through ``generator.send``. The generator's ``return``
value becomes the task instance's result.

Every syscall is immutable. ``Compute``, ``Send`` and ``Recv`` — one of each
per halo message of a stencil — are tuple-backed, which is what an
immutable value costs least to build as; the rarer ones are frozen
dataclasses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, NamedTuple

#: Wildcard source for Recv: match a message from any sender.
ANY = None


class Compute(NamedTuple):
    """Consume CPU: *work* work units (a speed-1.0 idle machine does one
    unit per second; background load and co-resident VCE tasks slow it
    down)."""

    work: float


class Send(NamedTuple):
    """Send *data* to another task instance. Non-blocking (buffered).

    Attributes:
        dst: destination — an int rank (same task's MPI communicator) or a
            string port name on a named channel.
        data: payload.
        size: wire size in bytes.
        tag: match key for the receiver.
        channel: explicit channel name; None = this task's MPI communicator.
    """

    dst: int | str
    data: Any = None
    size: int = 256
    tag: str | None = None
    channel: str | None = None


class Recv(NamedTuple):
    """Block until a matching message arrives; evaluates to
    ``(src, data)``.

    Attributes:
        src: int rank / str port to match, or :data:`ANY`.
        tag: tag to match, or None for any tag.
        channel: channel to listen on; None = the MPI communicator.
    """

    src: int | str | None = ANY
    tag: str | None = None
    channel: str | None = None


@dataclass(frozen=True, slots=True)
class Checkpoint:
    """Persist *state* to the checkpoint store ("migratable jobs checkpoint
    regularly", §4.4). Costs time proportional to *size*. The state comes
    back as ``ctx.restored_state`` after a checkpoint restart."""

    state: Any
    size: int = 1024


@dataclass(frozen=True, slots=True)
class Sleep:
    """Idle for *seconds* of simulation time (I/O waits, think time)."""

    seconds: float


@dataclass(frozen=True, slots=True)
class Emit:
    """Write a record to the run-wide event log."""

    category: str
    data: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class ReadFile:
    """Read a named input file. If the file is not on this machine it is
    fetched over the network first (costing transfer time) — the cost that
    anticipatory file replication (§4.5) removes."""

    name: str
    size: int = 1_000_000


@dataclass(frozen=True, slots=True)
class WriteFile:
    """Write a named output file onto the local machine."""

    name: str
    size: int = 1_000_000
