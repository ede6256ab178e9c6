"""Control frames for the network execution backend.

The scheduler protocol itself travels as the existing
:mod:`repro.scheduler.messages` dataclasses — daemons on real sockets
speak the same ``ResourceRequest``/``MachineBid``/``AllocationReply``
vocabulary the simulated daemons do.  The frames here are the transport
envelope and the small process-lifecycle vocabulary around that protocol:
join the mesh, learn the topology, receive a task, report its outcome.

Everything is a frozen slots dataclass (like the scheduler messages) so
payloads stay inert values on the wire.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.netsim.host import Address

#: reserved router host for supervisor-local addresses: frames sent to
#: ``_supervisor/...`` never leave the supervisor process
SUPERVISOR = "_supervisor"
#: the supervisor's event-log sink (daemon EmitRecord forwarding)
LOG_ADDR = Address(SUPERVISOR, "log")
#: the supervisor's execution-program mailbox (allocation replies,
#: task completions)
EXEC_ADDR = Address(SUPERVISOR, "exec")


@dataclass(frozen=True, slots=True)
class Envelope:
    """One addressed message: the router forwards by ``dst.host``."""

    src: Address
    dst: Address
    payload: Any


@dataclass(frozen=True, slots=True)
class Hello:
    """Daemon → supervisor, first frame on a connection."""

    host: str
    machine_name: str
    arch_class: str
    speed: float
    pid: int
    #: 0 on first connect; bumped on each reconnect of the same daemon
    incarnation: int = 0


@dataclass(frozen=True, slots=True)
class Welcome:
    """Supervisor → daemon, reply to :class:`Hello`.

    Carries everything a daemon needs to participate: who its peers are,
    which peer leads bidding, the workload *spec* (kind + kwargs — the
    daemon rebuilds the graph locally; task programs are closures and do
    not travel), and the wall-clock rate so sim-denominated compute work
    converts consistently everywhere.
    """

    host: str
    peers: tuple[str, ...]
    leader: str
    seed: int
    rate: float
    workload: "WorkloadSpec | None" = None


@dataclass(frozen=True, slots=True)
class WorkloadSpec:
    """A graph the daemon can rebuild deterministically by name."""

    kind: str
    kwargs: tuple[tuple[str, Any], ...] = ()

    def as_kwargs(self) -> dict[str, Any]:
        return dict(self.kwargs)


@dataclass(frozen=True, slots=True)
class TaskAssignment:
    """Supervisor → daemon: run one (task, rank) at an allocation epoch."""

    app: str
    task: str
    rank: int
    epoch: int
    work: float
    trace: tuple[tuple[str, Any], ...] = ()


@dataclass(frozen=True, slots=True)
class TaskDone:
    """Daemon → supervisor: a task instance finished."""

    app: str
    task: str
    rank: int
    epoch: int
    result: Any = None


@dataclass(frozen=True, slots=True)
class TaskFailed:
    """Daemon → supervisor: a task instance raised."""

    app: str
    task: str
    rank: int
    epoch: int
    error: str = ""


@dataclass(frozen=True, slots=True)
class EmitRecord:
    """Daemon → supervisor: forward one event-log record.

    Daemons emit protocol events (``sched.*``, ``task.*``) locally; the
    supervisor folds them into the run's single :class:`EventLog` so the
    conformance checker sees one record stream, as it does under netsim.
    """

    category: str
    source: str
    data: tuple[tuple[str, Any], ...] = ()


@dataclass(frozen=True, slots=True)
class Shutdown:
    """Supervisor → daemon: drain and exit."""

    reason: str = "done"


@dataclass(frozen=True, slots=True)
class Ping:
    """Either direction: round-trip probe (tests, reconnect checks)."""

    nonce: int = 0
    body: tuple[tuple[str, Any], ...] = field(default=())
