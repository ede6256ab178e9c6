"""The per-machine daemon process of the network backend.

``python -m repro.netexec.daemonhost --connect 127.0.0.1:PORT --host ws0``
is one real OS process playing the role netsim gives a simulated
:class:`~repro.scheduler.daemon.SchedulerDaemon` plus its host's task
executors: it connects to the supervisor's frame router, registers with
:class:`~repro.netexec.frames.Hello`, rebuilds the workload graph from
the :class:`~repro.netexec.frames.WorkloadSpec` in the
:class:`~repro.netexec.frames.Welcome` (task programs are closures and
never travel the wire), and then speaks the ordinary
:mod:`repro.scheduler.messages` protocol over the socket:

- as **leader** it serves :class:`ResourceRequest` by probing every peer
  with :class:`DiscloseProbe`, collecting :class:`ProbeReply` bids
  (bounded by a wall-clock timeout), and answering
  :class:`AllocationReply` sorted by load — emitting the same
  ``sched.request`` / ``sched.alloc`` records the simulated daemon does,
  forwarded to the supervisor's event log as :class:`EmitRecord` frames
  so the bidding FSM checker sees one stream.
- as **member** it answers probes with its own :class:`MachineBid`
  (load = currently-running instances).
- for each :class:`TaskAssignment` it runs the task's actual program
  generator, interpreting :class:`~repro.vmpi.api.Compute` effects as
  scaled wall-clock sleeps, and reports :class:`TaskDone` (carrying the
  generator's return value — the half of the results digest that must
  match the simulator) or :class:`TaskFailed`.

The process runs on :func:`new_event_loop`, whose timers wake to the
microsecond, so a ``Compute`` sleep ends when the model says it does.

Being killed with ``SIGKILL`` needs no code here: the supervisor's
failure detector sees the connection drop and strands our allocations,
exactly as the sim's chaos ``crash`` does.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import selectors
import sys
from typing import Any

from repro.machines.archclass import MachineClass
from repro.netexec.frames import (
    EXEC_ADDR,
    LOG_ADDR,
    EmitRecord,
    Envelope,
    Hello,
    Ping,
    Shutdown,
    TaskAssignment,
    TaskDone,
    TaskFailed,
    Welcome,
    WorkloadSpec,
)
from repro.netexec.transport import DaemonConnection
from repro.netsim.host import Address
from repro.scheduler.messages import (
    AllocationError_,
    DiscloseProbe,
    MachineBid,
    ProbeReply,
    AllocationReply,
    ResourceRequest,
    TerminateNotice,
)
from repro.vmpi.api import Checkpoint, Compute

#: wall seconds a leader waits for peer probe replies before resolving
PROBE_TIMEOUT = 2.0


def build_workload(spec: WorkloadSpec) -> Any:
    """Rebuild a task graph from its spec (deterministic by seed)."""
    if spec.kind == "randomdag":
        from repro.workloads.randomdag import build_random_dag

        return build_random_dag(**spec.as_kwargs())
    if spec.kind == "pipeline":
        from repro.workloads.pipeline import build_pipeline_graph

        return build_pipeline_graph(**spec.as_kwargs())
    if spec.kind == "diamond":
        from repro.workloads.pipeline import build_diamond_graph

        return build_diamond_graph(**spec.as_kwargs())
    raise ValueError(f"unknown workload kind {spec.kind!r}")


class _NetTaskContext:
    """Minimal ctx handed to task programs (rank/host introspection).

    ``restored_state`` is always None: the network backend re-runs a
    redispatched task from the start (checkpoints are accepted as effects
    but not yet persisted across processes — see docs/NETWORK.md).
    """

    __slots__ = ("task", "rank", "host", "restored_state")

    def __init__(self, task: str, rank: int, host: str) -> None:
        self.task = task
        self.rank = rank
        self.host = host
        self.restored_state = None


class DaemonHost:
    """One machine's daemon + executor, as a real process."""

    def __init__(
        self,
        host: str,
        machine_name: str,
        connect_host: str,
        connect_port: int,
        arch_class: str = "WORKSTATION",
        speed: float = 1.0,
    ) -> None:
        self.host = host
        self.machine_name = machine_name
        self.arch_class = MachineClass(arch_class)
        self.speed = speed
        self.addr = Address(host, "daemon")
        self.conn = DaemonConnection(
            connect_host, connect_port, self._on_message, retries=40
        )
        self.conn.on_connect = self._send_hello
        self.incarnation = -1
        self.rate = 1.0
        self.seed = 0
        self.peers: tuple[str, ...] = ()
        self.leader: str | None = None
        self.graph: Any = None
        self.welcome = asyncio.Event()
        self.stopping = asyncio.Event()
        #: (app, task, rank) -> running asyncio task
        self.running: dict[tuple[str, int | str], asyncio.Task] = {}
        #: leader state: req_id -> {"request", "bids", "waiting", "done"}
        self._rounds: dict[str, dict[str, Any]] = {}

    # -------------------------------------------------------------- wiring

    def _send_hello(self) -> None:
        self.incarnation += 1
        self.conn.send(
            Hello(
                host=self.host,
                machine_name=self.machine_name,
                arch_class=self.arch_class.value,
                speed=self.speed,
                pid=os.getpid(),
                incarnation=self.incarnation,
            )
        )

    def emit(self, category: str, source: str, **data: Any) -> None:
        """Forward one event-log record to the supervisor's log."""
        self.conn.send(
            Envelope(self.addr, LOG_ADDR, EmitRecord(category, source, tuple(data.items())))
        )

    def _forward_task(
        self, category: str, source: str, assignment: TaskAssignment, *extra: tuple[str, Any]
    ) -> None:
        """Forward a ``task.*`` record: the instance, *extra* items, then
        the assignment's trace ids (the simulator's order)."""
        identity = (
            ("app", assignment.app), ("task", assignment.task),
            ("rank", assignment.rank), ("host", self.host),
        )
        self.conn.send(
            Envelope(
                self.addr, LOG_ADDR,
                EmitRecord(category, source, identity + extra + assignment.trace),
            )
        )

    def send_to(self, dst: Address, payload: Any) -> None:
        self.conn.send(Envelope(self.addr, dst, payload))

    # ------------------------------------------------------------ messages

    async def _on_message(self, message: Any) -> None:
        if isinstance(message, Welcome):
            self._on_welcome(message)
            return
        if isinstance(message, Shutdown):
            self.stopping.set()
            return
        if not isinstance(message, Envelope):
            return
        payload = message.payload
        if isinstance(payload, TaskAssignment):
            self._start_task(payload)
        elif isinstance(payload, DiscloseProbe):
            self.send_to(payload.reply_to, ProbeReply(payload.req_id, self._bid()))
        elif isinstance(payload, ProbeReply):
            self._on_probe_reply(payload)
        elif isinstance(payload, ResourceRequest):
            asyncio.get_running_loop().create_task(self._lead_round(payload))
        elif isinstance(payload, TerminateNotice):
            self._cancel_app(payload.app)
        elif isinstance(payload, Ping):
            self.send_to(message.src, Ping(payload.nonce + 1))

    def _on_welcome(self, welcome: Welcome) -> None:
        self.peers = welcome.peers
        self.leader = welcome.leader
        self.rate = welcome.rate
        self.seed = welcome.seed
        if welcome.workload is not None and self.graph is None:
            self.graph = build_workload(welcome.workload)
        self.welcome.set()

    # ------------------------------------------------------------- bidding

    def _bid(self) -> MachineBid:
        return MachineBid(
            machine=self.machine_name,
            daemon=self.addr,
            load=float(len(self.running)),
            speed=self.speed,
            arch_class=self.arch_class,
        )

    def _trace_data(self, request: ResourceRequest) -> dict[str, Any]:
        return request.trace.fields() if request.trace is not None else {}

    async def _lead_round(self, request: ResourceRequest) -> None:
        """Serve one bidding round as group leader."""
        self.emit(
            "sched.request", str(self.addr),
            app=request.app, req_id=request.req_id, needed=request.total_min,
            **self._trace_data(request),
        )
        others = [p for p in self.peers if p != self.host]
        round_ = {"bids": [self._bid()], "pending": len(others),
                  "event": asyncio.Event()}
        self._rounds[request.req_id] = round_
        probe = DiscloseProbe(req_id=request.req_id, reply_to=self.addr)
        for peer in others:
            self.send_to(Address(peer, "daemon"), probe)
        if others:
            try:
                await asyncio.wait_for(round_["event"].wait(), PROBE_TIMEOUT)
            except asyncio.TimeoutError:
                pass  # resolve with whoever answered
        del self._rounds[request.req_id]
        bids = sorted(round_["bids"], key=lambda b: (b.load, -b.speed, b.machine))
        if len(bids) < request.total_min and not request.queue_if_insufficient:
            self.emit(
                "sched.alloc_error", str(self.addr),
                app=request.app, req_id=request.req_id,
                requested=request.total_min, available=len(bids),
                **self._trace_data(request),
            )
            self.send_to(
                request.reply_to,
                AllocationError_(request.req_id, request.total_min, len(bids)),
            )
            return
        self.emit(
            "sched.alloc", str(self.addr),
            app=request.app, req_id=request.req_id, bids=len(bids),
            **self._trace_data(request),
        )
        self.send_to(request.reply_to, AllocationReply(request.req_id, tuple(bids)))

    def _on_probe_reply(self, reply: ProbeReply) -> None:
        round_ = self._rounds.get(reply.req_id)
        if round_ is None:
            return
        if reply.bid is not None:
            round_["bids"].append(reply.bid)
        round_["pending"] -= 1
        if round_["pending"] <= 0:
            round_["event"].set()

    # ----------------------------------------------------------- execution

    def _start_task(self, assignment: TaskAssignment) -> None:
        key = (assignment.app, assignment.task, assignment.rank)
        task = asyncio.get_running_loop().create_task(self._run_task(assignment))
        self.running[key] = task
        task.add_done_callback(lambda _t: self.running.pop(key, None))

    async def _run_task(self, assignment: TaskAssignment) -> None:
        source = f"{assignment.app}/{assignment.task}:{assignment.rank}"
        self._forward_task("task.start", source, assignment)
        try:
            result = await self._execute(assignment)
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            self._forward_task("task.failed", source, assignment, ("error", str(exc)))
            self.send_to(
                EXEC_ADDR,
                TaskFailed(assignment.app, assignment.task, assignment.rank,
                           assignment.epoch, str(exc)),
            )
            return
        self._forward_task("task.done", source, assignment)
        self.send_to(
            EXEC_ADDR,
            TaskDone(assignment.app, assignment.task, assignment.rank,
                     assignment.epoch, result),
        )

    async def _execute(self, assignment: TaskAssignment) -> Any:
        """Run the task's real program generator; Compute → scaled sleep."""
        node = None
        if self.graph is not None and assignment.task in self.graph:
            node = self.graph.task(assignment.task)
        program = getattr(node, "program", None)
        if program is None:
            await self._compute(assignment.work)
            return assignment.work
        ctx = _NetTaskContext(assignment.task, assignment.rank, self.host)
        gen = program(ctx)
        value: Any = None
        while True:
            try:
                effect = gen.send(value)
            except StopIteration as stop:
                return stop.value
            if isinstance(effect, Compute):
                await self._compute(effect.work)
                value = None
            elif isinstance(effect, Checkpoint):
                value = None  # accepted, not persisted (docs/NETWORK.md)
            else:
                raise RuntimeError(
                    f"effect {type(effect).__name__} is not supported on the "
                    f"network backend (Compute only; see docs/NETWORK.md)"
                )

    async def _compute(self, work: float) -> None:
        """*work* units at our speed, scaled from sim to wall seconds."""
        await asyncio.sleep(work / self.speed / max(self.rate, 1e-9))

    def _cancel_app(self, app: str) -> None:
        for key, task in list(self.running.items()):
            if key[0] == app:
                task.cancel()

    # ------------------------------------------------------------ lifetime

    async def run(self) -> None:
        await self.conn.connect()
        try:
            await self.stopping.wait()
        finally:
            for task in list(self.running.values()):
                task.cancel()
            await self.conn.close()


def new_event_loop() -> asyncio.AbstractEventLoop:
    """The daemon process's event loop: asyncio on a ``select()`` selector.

    The default selector is epoll, whose timeout is whole milliseconds:
    CPython rounds every wait *up* to the next one, so a 1.2 ms
    ``Compute`` sleep overshoots by about 0.9 ms. ``select()`` takes
    microseconds. At ``rate`` sim seconds per wall second a timer late
    by *d* wall seconds is late by *d* × ``rate`` sim seconds. A daemon
    holds one socket, so ``select()`` costs it nothing more than epoll.
    """
    return asyncio.SelectorEventLoop(selectors.SelectSelector())


async def _end_the_rest() -> None:
    """What ``asyncio.run`` does before it closes its loop: cancel every
    task still on it (the connection's reader, cancelled task programs,
    a leader round) and wait for them to finish."""
    rest = asyncio.all_tasks() - {asyncio.current_task()}
    for task in rest:
        task.cancel()
    await asyncio.gather(*rest, return_exceptions=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-daemonhost",
        description="netexec daemon process (spawned by the supervisor)",
    )
    parser.add_argument("--connect", required=True, metavar="HOST:PORT")
    parser.add_argument("--host", required=True, help="VCE host name (e.g. ws0)")
    parser.add_argument("--machine", default=None, help="machine name (default: host)")
    parser.add_argument("--arch-class", default="WORKSTATION")
    parser.add_argument("--speed", type=float, default=1.0)
    args = parser.parse_args(argv)
    chost, _, cport = args.connect.rpartition(":")
    daemon = DaemonHost(
        host=args.host,
        machine_name=args.machine or args.host,
        connect_host=chost or "127.0.0.1",
        connect_port=int(cport),
        arch_class=args.arch_class,
        speed=args.speed,
    )
    loop = new_event_loop()
    try:
        loop.run_until_complete(daemon.run())
    except KeyboardInterrupt:
        return 130
    finally:
        loop.run_until_complete(_end_the_rest())
        loop.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
