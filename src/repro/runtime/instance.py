"""Task instances: the syscall interpreter.

A :class:`TaskInstance` drives one task program (a Python generator) on its
host, translating the vMPI syscalls into simulated effects:

- ``Compute`` — time = work / (machine effective speed / co-resident VCE
  compute tasks). Effective speed is sampled when the burst starts (a
  documented approximation; bursts are short relative to load changes in
  the shipped workloads) and re-sampled if the machine is fully busy.
- ``Send``/``Recv`` — channel traffic with tag/src matching and a parked-
  receive mailbox.
- ``Checkpoint`` — writes the checkpoint store, charging write cost.
- ``ReadFile``/``WriteFile`` — local or remote file access against the
  machine's file set.
- ``Sleep``/``Emit`` — timing and logging.

Instances can be *suspended* (the Stealth-style load policies of §4.3: the
program stops advancing but keeps accumulating messages), *killed* (the
redundant-execution scheme kills copies), and *adopted* by another host
(dump migration moves the live object; see ``Host.adopt``).
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any, Callable, NamedTuple

from repro.channels.channel import Channel, ChannelDelivery
from repro.channels.port import Port, PortDirection
from repro.netsim.host import Address
from repro.netsim.process import SimProcess
from repro.trace.context import TRACE_FIELDS
from repro.util.errors import CommunicationError, SimulationError
from repro.vmpi.api import ANY, Checkpoint, Compute, Emit, ReadFile, Recv, Send, Sleep, WriteFile
from repro.vmpi.communicator import TaskContext

if TYPE_CHECKING:  # pragma: no cover
    from repro.netsim.host import Host
    from repro.runtime.checkpoints import CheckpointStore
    from repro.taskgraph.node import TaskNode
    from repro.util.eventlog import Category, EventLog


class InstanceState(enum.Enum):
    PENDING = "pending"
    RUNNING = "running"
    BLOCKED = "blocked"
    SUSPENDED = "suspended"
    DONE = "done"
    FAILED = "failed"
    KILLED = "killed"


# ``terminal`` is a plain member attribute, not a property: the telemetry
# sampler and watchdog test it once per instance per tick, and descriptor
# dispatch through the enum metaclass dominates that loop.
for _state in InstanceState:
    _state.terminal = _state in (
        InstanceState.DONE, InstanceState.FAILED, InstanceState.KILLED
    )
del _state

# The per-instance path names its states through these: on Python 3.11 a
# member looked up on its enum class goes through the enum metaclass's
# ``__getattr__`` (~0.1 us), and an instance's life takes a dozen lookups.
_PENDING, _RUNNING, _DONE, _FAILED, _KILLED = (
    InstanceState.PENDING, InstanceState.RUNNING, InstanceState.DONE,
    InstanceState.FAILED, InstanceState.KILLED,
)


def _host_compute_delta(host: Any, delta: int) -> int:
    """Add *delta* to the host's count of computing VCE instances; returns
    the new count."""
    count = host._vce_computing = getattr(host, "_vce_computing", 0) + delta
    return count


#: the payload of ``task.start`` and of an instance's exit record
_TASK_FIELDS = ("app", "task", "rank", "host", *TRACE_FIELDS)

#: the payload of a ``runtime.dispatch`` record
DISPATCH_FIELDS = (
    "task", "rank", "host", "stage_in", "binary", "incarnation", "after", *TRACE_FIELDS
)

#: vMPI destination ranks as channel port names, one string per rank
_RANK_NAMES: dict[int, str] = {}


class TaskCategories(NamedTuple):
    """The event-log handles every instance of one run writes through,
    resolved once per run by the runtime manager."""

    start: "Category"
    recv: "Category"
    done: "Category"
    failed: "Category"
    killed: "Category"

    @classmethod
    def of(cls, log: "EventLog") -> "TaskCategories":
        return cls(
            log.category("task.start", _TASK_FIELDS),
            log.category("chan.recv", ("channel", "from_span", "size", *TRACE_FIELDS)),
            *[
                log.category(f"task.{state.value}", _TASK_FIELDS)
                for state in (_DONE, _FAILED, _KILLED)
            ],
        )


#: every syscall type, the per-message ones first; ``_step`` dispatches on
#: the exact type and falls back to ``isinstance`` for a subclass
_SYSCALLS = (Send, Recv, Compute, Checkpoint, Sleep, Emit, ReadFile, WriteFile)


class _Envelope:
    """Tagged payload riding inside channel deliveries. Carries the
    sender's trace context so the receiver can log the causal hop."""

    __slots__ = ("tag", "data", "trace")

    def __init__(self, tag: str | None, data: Any, trace: Any = None) -> None:
        self.tag = tag
        self.data = data
        self.trace = trace


class TaskInstance(SimProcess):
    """One running copy of a task (see module docstring).

    Args:
        name: globally unique process name.
        ctx: the task context handed to the program factory.
        node: the task-graph node being executed.
        channels: name → Channel for every channel this instance may use;
            the key ``None``... is not allowed — the MPI communicator
            channel is passed as ``mpi_channel``.
        mpi_channel: the channel carrying this task's rank-addressed
            traffic (None for single-instance tasks that never use ranks).
        checkpoints: the checkpoint store.
        on_exit: callback ``(instance, state, result_or_error)`` fired once
            on DONE / FAILED / KILLED.
        metrics: the ``(vmpi_sends_total, compute_burst_seconds)`` families
            of the simulator's registry, or None (telemetry off).

    A DONE or FAILED instance leaves its host and drops its finished
    generator: after the exit only its result, context and record are read.
    A KILLED one keeps its suspended generator (closing it would run the
    program's ``finally`` blocks).
    """

    # Slotted: a task instance carries more attributes than the per-class
    # shared instance dict holds, and the plain dict it would fall back to
    # is one more object for the collector to walk per instance ever run.
    __slots__ = (
        "ctx", "node", "channels", "mpi_channel", "checkpoints", "on_exit",
        "start_delay", "allocation_epoch", "state", "result", "error",
        "work_done", "started_at", "finished_at", "_gen", "_gen_started",
        "_mailbox", "_parked_recv", "_suspended", "_held_resume", "_held_timer",
        "_computing",
        "_compute_finish_at", "_frozen_compute_remaining", "_stalled_work",
        "_m_sends", "_m_compute", "_categories", "_trace_values", "_rank_port",
        "_named_port", "_sources",
    )

    #: polling interval when the machine is completely saturated by local load
    STALL_RETRY = 1.0

    def __init__(
        self,
        name: str,
        ctx: TaskContext,
        node: "TaskNode",
        channels: dict[str, Channel],
        mpi_channel: Channel | None,
        checkpoints: "CheckpointStore",
        on_exit: Callable[["TaskInstance", InstanceState, Any], None] | None = None,
        start_delay: float = 0.0,
        metrics: tuple[Any, Any] | None = None,
        *,
        categories: TaskCategories,
    ) -> None:
        super().__init__(name)
        self.ctx = ctx
        self.node = node
        self.channels = channels
        self.mpi_channel = mpi_channel
        self.checkpoints = checkpoints
        self.on_exit = on_exit
        self.start_delay = start_delay

        self.state = InstanceState.PENDING
        self.result: Any = None
        self.error: Exception | None = None
        self.work_done = 0.0
        self.started_at: float | None = None
        self.finished_at: float | None = None

        self._gen: Any = None
        self._gen_started = False
        # created by the first message: most instances never receive one
        self._mailbox: list[tuple[str | None, str | int, str | None, Any]] | None = None
        self._parked_recv: Recv | None = None
        self._suspended = False
        self._held_resume: tuple[Any] | None = None
        # a stage-in or compute-stalled timer that fired while suspended
        self._held_timer: str | None = None
        self._computing = False
        self._compute_finish_at: float | None = None
        self._frozen_compute_remaining: float | None = None
        self._m_sends, self._m_compute = metrics or (None, None)
        self._categories = categories
        #: trace_id/span_id/parent_span_id of this incarnation's span
        trace = ctx.trace
        self._trace_values: tuple[str, ...] = trace.values() if trace is not None else ()
        # what a message needs beyond its own fields, resolved once per
        # incarnation: the two sender ports name this address, so a dump
        # migration (Host.adopt) drops them; the rank a sender port of the
        # MPI channel stands for does not change
        self._rank_port: Port | None = None
        self._named_port: Port | None = None
        self._sources: dict[str, int | str] = {}

    @property
    def _trace_fields(self) -> dict[str, Any]:
        """The trace ids as a keyword payload, for the rarer categories."""
        return dict(zip(TRACE_FIELDS, self._trace_values))

    def _invalidate_address_cache(self) -> None:
        super()._invalidate_address_cache()
        self._rank_port = self._named_port = None

    # ------------------------------------------------------------- lifecycle

    def on_start(self) -> None:
        if self.state is not _PENDING:
            return
        if self.start_delay > 0:
            # data-staging / binary-loading time before the program runs
            self.set_timer(self.start_delay, "stage-in")
        else:
            self._begin()

    def on_timer(self, key: str) -> None:
        if key == "compute-done":
            self._computing = False
            _host_compute_delta(self.host, -1)
            self._resume(None)
        elif key == "resume":
            self._resume(None)
        elif self._suspended:
            # nothing starts while suspended: resume() acts on it
            self._held_timer = key
        elif key == "stage-in":
            self._begin()
        elif key == "compute-stalled":
            self._start_compute(self._stalled_work)

    def _begin(self) -> None:
        if self.node.program is None:
            raise SimulationError(f"task {self.node.name!r} has no program attached")
        host = self.host
        sim = host.sim
        self.state = _RUNNING
        self.started_at = sim.now
        ctx = self.ctx
        # straight to the simulator, as on_message does
        sim.emit(
            self._categories.start,
            self._addr_str or str(self.address),
            ctx.app,
            ctx.task,
            ctx.rank,
            host.name,
            *self._trace_values,
        )
        self._gen = self.node.program(self.ctx)
        self._step(None)

    # ------------------------------------------------------------ interpreter

    def _step(self, send_value: Any) -> None:
        """Advance the generator until it blocks or finishes."""
        gen = self._gen
        while self.alive and not self.state.terminal:
            try:
                if self._gen_started:
                    syscall = gen.send(send_value)
                else:
                    self._gen_started = True
                    syscall = next(gen)
            except StopIteration as stop:
                self._finish(_DONE, stop.value)
                return
            except Exception as err:  # noqa: BLE001 - task program fault
                self._finish(_FAILED, err)
                return
            send_value = None

            kind = type(syscall)
            if kind not in _SYSCALLS:
                kind = next((k for k in _SYSCALLS if isinstance(syscall, k)), None)
            if kind is Send:
                self._do_send(syscall)
            elif kind is Recv:
                if self._mailbox:
                    send_value = self._match_mailbox(syscall)
                if send_value is None:
                    self._parked_recv = syscall
                    self.state = InstanceState.BLOCKED
                    return
            elif kind is Compute:
                self._start_compute(syscall.work)
                return
            elif kind is Checkpoint:
                cost = self.checkpoints.put(
                    self.ctx.app, self.ctx.task, self.ctx.rank,
                    syscall.state, syscall.size, self.now,
                )
                self.emit("task.checkpoint", app=self.ctx.app, task=self.ctx.task,
                          rank=self.ctx.rank, size=syscall.size, **self._trace_fields)
                self.set_timer(cost, "resume")
                return
            elif kind is Sleep:
                self.set_timer(max(0.0, syscall.seconds), "resume")
                return
            elif kind is Emit:
                self.emit(syscall.category, **syscall.data)
            elif kind is ReadFile:
                self.set_timer(self._file_read_cost(syscall), "resume")
                return
            elif kind is WriteFile:
                machine = self.host.machine
                if machine is not None:
                    machine.files.add(syscall.name)
                self.set_timer(syscall.size * 1e-8, "resume")
                return
            else:
                raise SimulationError(
                    f"task {self.node.name!r} yielded unknown syscall {syscall!r}"
                )

    def _resume(self, value: Any) -> None:
        """Continue the generator, honouring suspension."""
        if not self.alive or self.state.terminal:
            return
        if self._suspended:
            self._held_resume = (value,)
            return
        self.state = _RUNNING
        self._step(value)

    # -------------------------------------------------------------- compute

    def _start_compute(self, work: float) -> None:
        host = self.host
        now = host.sim.now
        machine = host.machine
        base = machine.effective_speed(now) if machine is not None else host.speed
        if base <= 1e-9:
            # machine saturated by local work: poll until capacity frees up
            self._stalled_work = work
            self.set_timer(self.STALL_RETRY, "compute-stalled")
            return
        contenders = _host_compute_delta(host, +1)
        speed = base / contenders
        duration = work / speed
        bursts = self._m_compute
        if bursts is not None:
            (bursts.child or bursts.solo()).observe(duration)
        self._computing = True
        self.work_done += work
        self._compute_finish_at = now + duration
        self.set_timer(duration, "compute-done")

    # ---------------------------------------------------------------- comms

    def _channel_for(self, name: str | None) -> Channel:
        if name is None:
            if self.mpi_channel is None:
                raise CommunicationError(
                    f"task {self.node.name!r} has no MPI communicator "
                    "(single-instance task sending by rank?)"
                )
            return self.mpi_channel
        try:
            return self.channels[name]
        except KeyError:
            raise CommunicationError(
                f"task {self.node.name!r} is not attached to channel {name!r}"
            ) from None

    def _do_send(self, syscall: Send) -> None:
        name = syscall.channel
        channel = self.mpi_channel if name is None else self.channels.get(name)
        if channel is None:
            channel = self._channel_for(name)  # raises, naming what is missing
        sends = self._m_sends
        if sends is not None:
            (sends.child or sends.solo()).inc()
        dst = syscall.dst
        if isinstance(dst, int):
            to = _RANK_NAMES.get(dst)
            if to is None:
                to = _RANK_NAMES[dst] = str(dst)
            sender = self._rank_port
            if sender is None:
                sender = self._rank_port = Port(
                    str(self.ctx.rank), self.address, PortDirection.SEND
                )
        else:
            to = dst
            sender = self._named_port
            if sender is None:
                sender = self._named_port = Port(
                    f"{self.ctx.task}[{self.ctx.rank}]", self.address, PortDirection.SEND
                )
        trace = self.ctx.trace
        channel.send(sender, _Envelope(syscall.tag, syscall.data, trace), syscall.size, to, trace)

    def _match_mailbox(self, pattern: Recv) -> tuple[Any, Any] | None:
        """Find, pop, and return (src, data) for the first matching message."""
        chan, src, tag = pattern.channel, pattern.src, pattern.tag
        mailbox = self._mailbox
        for i, message in enumerate(mailbox or ()):
            if (
                message[0] == chan
                and (src is ANY or message[1] == src)
                and (tag is None or message[2] == tag)
            ):
                del mailbox[i]
                return (message[1], message[3])
        return None

    def on_message(self, src: Address, payload: Any) -> None:
        if not isinstance(payload, ChannelDelivery):
            return
        channel, _port, sender_port, envelope, size = payload
        if type(envelope) is _Envelope:
            tag, data, sender_trace = envelope.tag, envelope.data, envelope.trace
            if sender_trace is not None and self.ctx.trace is not None:
                # the causal hop: link the sender's span into our trace
                self.host.sim.emit(
                    self._categories.recv,
                    self._addr_str or str(self.address),
                    channel,
                    sender_trace.span_id,
                    size,
                    *self._trace_values,
                )
        else:
            tag, data = None, envelope
        mpi_channel = self.mpi_channel
        if mpi_channel is not None and channel == mpi_channel.name:
            chan_key: str | None = None
            source = self._sources.get(sender_port)
            if source is None:
                try:
                    source = int(sender_port)
                except ValueError:
                    source = sender_port
                self._sources[sender_port] = source
        else:
            chan_key = channel
            source = sender_port
        mailbox = self._mailbox
        if mailbox is None:
            mailbox = self._mailbox = []
        mailbox.append((chan_key, source, tag, data))
        if self._parked_recv is not None and not self._suspended:
            matched = self._match_mailbox(self._parked_recv)
            if matched is not None:
                self._parked_recv = None
                self._resume(matched)

    # ------------------------------------------------------------------ files

    def _file_read_cost(self, syscall: ReadFile) -> float:
        machine = self.host.machine
        local_cost = syscall.size * 1e-8  # ~100 MB/s local disk
        if machine is None or syscall.name in machine.files:
            return local_cost
        # remote fetch over the LAN, then cache locally
        network = self.host.network
        fetch = syscall.size / network.latency.bandwidth + network.latency.base_latency
        machine.files.add(syscall.name)
        self.emit("task.file_fetch", app=self.ctx.app, task=self.ctx.task,
                  rank=self.ctx.rank, file=syscall.name, size=syscall.size,
                  **self._trace_fields)
        return local_cost + fetch

    # ----------------------------------------------------------------- control

    def suspend(self) -> None:
        """Stop advancing the program (Stealth-style local-priority yield).
        An in-flight compute burst is frozen and its remaining time resumes
        on :meth:`resume` — the CPU really is taken away.  A stage-in or
        stalled burst that comes due meanwhile starts on :meth:`resume`."""
        if self.state.terminal or self._suspended:
            return
        self._suspended = True
        if self._computing and self._compute_finish_at is not None:
            self._frozen_compute_remaining = max(0.0, self._compute_finish_at - self.now)
            self.cancel_timer("compute-done")
            self._computing = False
            _host_compute_delta(self.host, -1)
        self.state = InstanceState.SUSPENDED
        self.emit("task.suspend", app=self.ctx.app, task=self.ctx.task,
                  rank=self.ctx.rank, **self._trace_fields)

    def resume(self) -> None:
        """Undo :meth:`suspend`."""
        if self.state.terminal or not self._suspended:
            return
        self._suspended = False
        self.state = InstanceState.BLOCKED if self._parked_recv else InstanceState.RUNNING
        self.emit("task.resume", app=self.ctx.app, task=self.ctx.task,
                  rank=self.ctx.rank, **self._trace_fields)
        held = self._held_timer
        if held is not None:
            self._held_timer = None
            self.on_timer(held)
            return
        if self._frozen_compute_remaining is not None:
            remaining = self._frozen_compute_remaining
            self._frozen_compute_remaining = None
            self._computing = True
            _host_compute_delta(self.host, +1)
            self._compute_finish_at = self.now + remaining
            self.set_timer(remaining, "compute-done")
            return
        if self._held_resume is not None:
            value = self._held_resume[0]
            self._held_resume = None
            self._resume(value)
        elif self._parked_recv is not None:
            matched = self._match_mailbox(self._parked_recv)
            if matched is not None:
                self._parked_recv = None
                self._resume(matched)

    def kill(self, reason: str = "") -> None:
        """Terminate this copy ("kill the incarnation of the redundant task
        on that machine", §4.4)."""
        if self.state.terminal:
            return
        self._finish(InstanceState.KILLED, reason)
        if self.host is not None:
            self.host.kill(self.name)

    def refuse(self, error: Exception) -> None:
        """Fail an instance that never started, its host being down when it
        was dispatched: its exit reaches ``on_exit`` as a crash of that host
        would make it, but it logs no lifecycle record, having never run."""
        self.state = _FAILED
        self.error = error
        self.finished_at = self.now
        if self.on_exit is not None:
            self.on_exit(self, _FAILED, error)

    def _finish(self, state: InstanceState, outcome: Any) -> None:
        if self.state.terminal:
            return
        if self._computing:
            self._computing = False
            _host_compute_delta(self.host, -1)
            self.cancel_timer("compute-done")
        sim = self.sim
        self.state = state
        self.finished_at = sim.now
        # picked by identity: an enum member hashes in Python
        if state is _DONE:
            self.result = outcome
            category = self._categories.done
        elif state is _FAILED:
            self.error = outcome
            category = self._categories.failed
        else:
            category = self._categories.killed
        host = self.host
        ctx = self.ctx
        sim.emit(
            category,
            self._addr_str or str(self.address),
            ctx.app,
            ctx.task,
            ctx.rank,
            host.name if host else "?",
            *self._trace_values,
        )
        if state is not _KILLED:
            self._gen = None
            if host is not None:
                host.release(self)
        if self.on_exit is not None:
            self.on_exit(self, state, outcome)

    def on_crash(self) -> None:
        if not self.state.terminal:
            if self._computing:
                self._computing = False
                _host_compute_delta(self.host, -1)
            self.state = InstanceState.FAILED
            self.error = SimulationError(f"host {self.host.name} crashed")
            self.finished_at = self.now
            self.emit("task.host_crashed", app=self.ctx.app, task=self.ctx.task,
                      rank=self.ctx.rank, **self._trace_fields)
            if self.on_exit is not None:
                self.on_exit(self, InstanceState.FAILED, self.error)


def live_instances(host: "Host") -> list[TaskInstance]:
    """The VCE task instances in *host*'s process table that have not
    exited, redundant copies included: the one book of what runs on a
    machine.  Read by state, not ``alive``: a spawned instance is not alive
    until its start event runs."""
    return [
        process
        for process in host.processes()
        if isinstance(process, TaskInstance) and not process.state.terminal
    ]
