"""The supervisor process: execution program + EXM over real sockets.

:class:`NetworkVCE` is the network backend's counterpart of
:class:`~repro.core.environment.VirtualComputingEnvironment`: it spawns
one :mod:`~repro.netexec.daemonhost` subprocess per machine, runs the
frame router they all connect to, and then plays the paper's execution
program / EXM role itself — the same flow
:class:`~repro.scheduler.execution_program.ExecutionProgram` and
:class:`~repro.runtime.manager.RuntimeManager` run under netsim:

1. send a :class:`ResourceRequest` to the leader daemon, await its
   :class:`AllocationReply` (the daemons run the real bidding round over
   the sockets);
2. place instances with the same
   :func:`~repro.scheduler.policies.load_sorted_assignment` policy;
3. dispatch :class:`TaskAssignment` frames respecting graph precedence,
   emitting ``runtime.dispatch``;
4. arm a failover **lease** per dispatch (on the wall-clock sim heap, so
   :class:`~repro.migration.failover.FailoverConfig` values keep their
   sim-seconds meaning, scaled by the backend rate); a dead daemon — EOF
   on its connection, or a lease that finds it gone — strands its
   allocations (``recovery.lease_expired`` / ``recovery.strand``) and
   re-dispatches at once at a bumped epoch (``recovery.redispatch``), refusing
   stale commits (``runtime.stale_commit``) for at-most-once completion;
5. chaos ``crash`` actions become real ``SIGKILL`` of the daemon
   subprocess; ``restart`` respawns it.

Every protocol event the daemons emit is forwarded into this process's
single :class:`EventLog`, so ``analysis.protocol.check_records`` verifies
the network run exactly as it verifies a simulated one.
"""

from __future__ import annotations

import asyncio
import hashlib
import os
import signal
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

from repro.core.config import VCEConfig
from repro.machines.archclass import MachineClass
from repro.machines.machine import Machine
from repro.migration.failover import FailoverConfig
from repro.netexec.daemonhost import build_workload
from repro.netexec.frames import (
    EXEC_ADDR,
    EmitRecord,
    Envelope,
    Heartbeat,
    Hello,
    Shutdown,
    TaskAssignment,
    TaskDone,
    TaskFailed,
    Welcome,
    WorkloadSpec,
)
from repro.netexec.transport import FrameRouter, TransportError
from repro.netsim.backend import create_simulator
from repro.netsim.host import Address
from repro.runtime.instance import DISPATCH_FIELDS
from repro.scheduler.messages import (
    AllocationError_,
    AllocationReply,
    ModuleNeed,
    ResourceRequest,
    TerminateNotice,
)
from repro.scheduler.policies import load_sorted_assignment
from repro.taskgraph.precedence import DependencyCounters
from repro.trace.context import TraceContext
from repro.util.errors import AllocationError, ConfigurationError

#: wall-seconds ceiling on daemon registration at boot
BOOT_TIMEOUT = 20.0
#: wall-seconds ceiling on one allocation round (request → reply)
ALLOC_TIMEOUT = 10.0


@dataclass
class _Record:
    """One (task, rank) allocation as the supervisor tracks it."""

    task: str
    rank: int
    host: str | None = None
    epoch: int = 0
    attempts: int = 0
    dispatched: bool = False
    done: bool = False
    failed: bool = False
    result: Any = None
    stranded_at: float | None = None


@dataclass
class NetworkApp:
    """One application run on the network backend."""

    id: str
    graph: Any
    trace: TraceContext
    records: dict[tuple[str, int], _Record] = field(default_factory=dict)
    finished: asyncio.Event = field(default_factory=asyncio.Event)
    failed: bool = False

    def __post_init__(self) -> None:
        #: which tasks a commit releases — the counters the simulator's
        #: runtime manager dispatches from
        self.precedence = DependencyCounters(self.graph)
        #: tasks with an instance still to finish
        self._open_tasks = len(self.precedence.remaining)

    @property
    def done(self) -> bool:
        return self._open_tasks == 0

    def commit(self, record: _Record, result: Any) -> Sequence[str]:
        """Mark *record* done. Returns the tasks this released."""
        record.done = True
        record.result = result
        record.stranded_at = None
        released = self.precedence.instance_done(record.task)
        if not self.precedence.remaining[record.task]:
            self._open_tasks -= 1
        return released

    def done_set(self) -> set[tuple[str, int]]:
        """The (task, rank) pairs that completed."""
        return {k for k, r in self.records.items() if r.done}

    def results_digest(self) -> str:
        """Order-independent digest of per-task results — the half of the
        determinism contract that must match the sim backend."""
        h = hashlib.sha256()
        for (task, rank), record in sorted(self.records.items()):
            h.update(f"{task}:{rank}:{record.result!r}\n".encode())
        return h.hexdigest()


def sim_results_digest(run: Any) -> str:
    """The same digest computed from a netsim AppRun (parity checks)."""
    h = hashlib.sha256()
    for (task, rank), record in sorted(run.app.records.items()):
        h.update(f"{task}:{rank}:{record.result!r}\n".encode())
    return h.hexdigest()


def sim_done_set(run: Any) -> set[tuple[str, int]]:
    """DONE (task, rank) pairs of a netsim AppRun (parity checks)."""
    from repro.runtime.instance import InstanceState

    return {
        key
        for key, record in run.app.records.items()
        if record.state is InstanceState.DONE
    }


class NetworkVCE:
    """A VCE whose daemons are real processes (see module docstring).

    Args:
        machines: machine descriptions; one daemon subprocess per entry.
        config: must have ``backend="network"``.
        rate: simulated seconds per wall second — compute work, leases
            and chaos times are sim-denominated and divide by this, so
            tests can run an 8-second lease in well under a second.
        port: router port to request (0 = pick a free one, the default).
        failover: lease and attempt knobs (sim seconds).
        eager_detection: strand a daemon's allocations the moment its
            connection drops; False leaves detection to lease expiry
            (the pure "kill -9 → lease-expiry redispatch" path).
    """

    def __init__(
        self,
        machines: list[Machine],
        config: VCEConfig | None = None,
        rate: float = 10.0,
        port: int = 0,
        failover: FailoverConfig | None = None,
        eager_detection: bool = True,
    ) -> None:
        if not machines:
            raise ConfigurationError("a network VCE needs at least one machine")
        self.config = config or VCEConfig(backend="network")
        if self.config.backend != "network":
            raise ConfigurationError(
                f"NetworkVCE requires backend='network', got {self.config.backend!r}"
            )
        self.machines = {m.name: m for m in machines}
        self.sim = create_simulator(self.config.seed, backend="network")
        self.sim.set_rate(rate)
        self._dispatches = self.sim.log.category("runtime.dispatch", DISPATCH_FIELDS)
        self.rate = rate
        self.failover = failover or FailoverConfig()
        self.eager_detection = eager_detection
        self.requested_port = port
        self.leader = sorted(self.machines)[0]
        self.router = FrameRouter(
            self._on_local,
            on_hello=self._on_hello,
            on_disconnect=self._on_disconnect,
            on_frame=self._on_frame,
        )
        self.workload_spec: WorkloadSpec | None = None
        self.apps: dict[str, NetworkApp] = {}
        self._procs: dict[str, subprocess.Popen] = {}
        self._spawn_args: dict[str, list[str]] = {}
        self._hellos: dict[str, Hello] = {}
        self._all_registered = asyncio.Event()
        self._alloc_waiters: dict[str, asyncio.Future] = {}
        self._loads: dict[str, float] = {}
        self._booted = False

    # ------------------------------------------------------------------ boot

    async def aboot(self, workload: WorkloadSpec | None = None) -> "NetworkVCE":
        """Bind the router, spawn one daemon per machine, await Hellos."""
        self.workload_spec = workload
        port = await self.router.start("127.0.0.1", self.requested_port)
        self.sim.hold()  # sockets keep the wall-clock loop alive
        env = dict(os.environ)
        src_root = str(Path(__file__).resolve().parents[2])
        env["PYTHONPATH"] = src_root + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        for name, machine in sorted(self.machines.items()):
            argv = [
                sys.executable, "-m", "repro.netexec.daemonhost",
                "--connect", f"127.0.0.1:{port}",
                "--host", name, "--machine", name,
                "--arch-class", machine.arch_class.value,
                "--speed", str(machine.speed),
            ]
            self._spawn_args[name] = argv
            self._procs[name] = subprocess.Popen(
                argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
            )
        try:
            await asyncio.wait_for(self._all_registered.wait(), BOOT_TIMEOUT)
        except asyncio.TimeoutError:
            missing = sorted(set(self.machines) - set(self._hellos))
            await self.ashutdown()
            raise TransportError(
                f"daemons never registered within {BOOT_TIMEOUT}s: {missing}"
            )
        self._booted = True
        return self

    async def _on_hello(self, hello: Hello, peer: Any) -> None:
        self._hellos[hello.host] = hello
        self.sim.emit(
            "net.hello", hello.host,
            machine=hello.machine_name, pid=hello.pid,
            incarnation=hello.incarnation,
        )
        self.router.send(
            hello.host,
            Welcome(
                host=hello.host,
                peers=tuple(sorted(self.machines)),
                leader=self.leader,
                seed=self.config.seed,
                rate=self.rate,
                workload=self.workload_spec,
            ),
        )
        if set(self._hellos) >= set(self.machines):
            self._all_registered.set()

    # -------------------------------------------------------------- inbound

    def _on_local(self, envelope: Envelope) -> None:
        payload = envelope.payload
        if isinstance(payload, EmitRecord):
            self.sim.log.append(
                self.sim.now, payload.category, payload.source, dict(payload.data)
            )
        elif isinstance(payload, (AllocationReply, AllocationError_)):
            waiter = self._alloc_waiters.pop(payload.req_id, None)
            if waiter is not None and not waiter.done():
                waiter.set_result(payload)
        elif isinstance(payload, TaskDone):
            self._commit(payload)
        elif isinstance(payload, TaskFailed):
            self._task_failed(payload)

    def _on_frame(self, host: str, message: Any) -> None:
        if isinstance(message, Heartbeat):
            self._loads[host] = message.load

    # --------------------------------------------------------------- submit

    async def asubmit(self, workload: WorkloadSpec) -> NetworkApp:
        """Run the execution-program allocation flow for *workload*."""
        if not self._booted:
            raise ConfigurationError("call aboot() before submitting")
        graph = build_workload(workload)
        ids = self.sim.ids
        app = NetworkApp(
            id=ids.next("app"),
            graph=graph,
            trace=TraceContext(ids.next("trace"), ids.next("span")),
        )
        for node in graph:
            for rank in range(node.instances):
                app.records[(node.name, rank)] = _Record(node.name, rank)
        self.apps[app.id] = app
        req_id = ids.next("req")
        modules = tuple(
            ModuleNeed(task=node.name, min_instances=node.instances,
                       max_instances=node.instances)
            for node in graph
        )
        request = ResourceRequest(
            req_id=req_id,
            app=app.id,
            machine_class=MachineClass.WORKSTATION,
            modules=modules,
            reply_to=EXEC_ADDR,
            trace=app.trace,
        )
        reply = await self._allocate(request)
        for key, host in self._place(app, reply).items():
            app.records[key].host = host
        for task in sorted(graph.roots()):  # nothing holds them back
            self._dispatch_task(app, task)
        return app

    async def _allocate(self, request: ResourceRequest) -> AllocationReply:
        loop = asyncio.get_running_loop()
        last: AllocationError_ | None = None
        for _attempt in range(3):
            waiter: asyncio.Future = loop.create_future()
            self._alloc_waiters[request.req_id] = waiter
            self.router.route(
                Envelope(EXEC_ADDR, Address(self.leader, "daemon"), request)
            )
            try:
                reply = await asyncio.wait_for(waiter, ALLOC_TIMEOUT)
            except asyncio.TimeoutError:
                self._alloc_waiters.pop(request.req_id, None)
                self.sim.emit("exec.retry_request", request.app, req_id=request.req_id)
                continue
            if isinstance(reply, AllocationReply):
                return reply
            last = reply
            break
        if last is not None:
            raise AllocationError(
                f"{request.app}: {last.requested} instances requested, "
                f"{last.available} available"
            )
        raise AllocationError(f"{request.app}: no allocation reply from leader")

    def _place(self, app: NetworkApp, reply: AllocationReply) -> dict:
        """Same policy as the sim's execution program; leftover instances
        (more ranks than machines) round-robin over the sorted bids."""
        candidates = tuple(b.machine for b in reply.bids)
        needs = [(task, rank, candidates) for (task, rank) in sorted(app.records)]
        placed = load_sorted_assignment(needs, list(reply.bids))
        order = [b.machine for b in reply.bids]
        for i, (task, rank, _c) in enumerate(needs):
            if (task, rank) not in placed:
                placed[(task, rank)] = order[i % len(order)]
        return placed

    # ------------------------------------------------------------- dispatch

    def _dispatch_task(self, app: NetworkApp, task: str) -> None:
        """Dispatch every instance of *task*, whose precedence predecessors
        (all ranks) are done."""
        for rank in range(app.graph.task(task).instances):
            self._dispatch(app, app.records[(task, rank)])

    def _dispatch(self, app: NetworkApp, record: _Record) -> None:
        host = record.host
        if host is None or host not in self.router.peers:
            host = self._pick_host(record)
            if host is None:
                # nobody alive right now; retry after a lease period
                self.sim.schedule(
                    self.failover.lease,
                    lambda: self._dispatch(app, record),
                )
                return
            record.host = host
        node = app.graph.task(record.task)
        record.dispatched = True
        self.sim.emit(
            self._dispatches, app.id,
            record.task, record.rank, host, (), "", record.attempts,
            tuple(app.graph.predecessors(record.task)),
            *app.trace.values(),
        )
        self.router.send(
            host,
            Envelope(
                EXEC_ADDR,
                Address(host, "daemon"),
                TaskAssignment(
                    app=app.id, task=record.task, rank=record.rank,
                    epoch=record.epoch, work=node.work,
                    trace=tuple(app.trace.fields().items()),
                ),
            ),
        )
        self._lease(app, record, record.epoch)

    def _pick_host(self, record: _Record) -> str | None:
        """Least-loaded connected daemon of the record's machine class
        (deterministic tie-break by name)."""
        wanted = None
        if record.host in self.machines:
            wanted = self.machines[record.host].arch_class
        candidates = []
        for host in self.router.peers:
            machine = self.machines.get(host)
            if machine is None:
                continue
            if wanted is not None and machine.arch_class is not wanted:
                continue
            candidates.append((self._loads.get(host, 0.0), host))
        if not candidates:
            return None
        candidates.sort()
        return candidates[0][1]

    # --------------------------------------------------------------- leases

    def _lease(self, app: NetworkApp, record: _Record, epoch: int) -> None:
        self.sim.schedule(
            self.failover.lease, lambda: self._lease_due(app, record, epoch)
        )

    def _lease_due(self, app: NetworkApp, record: _Record, epoch: int) -> None:
        if record.done or record.failed or record.epoch != epoch:
            return
        host = record.host
        if host in self.router.peers:
            self._lease(app, record, epoch)  # renewed
            return
        self.sim.emit(
            "recovery.lease_expired", app.id,
            task=record.task, rank=record.rank, epoch=epoch, host=host,
        )
        self._strand(app, record, reason="lease-expired", via="timeout")

    def _on_disconnect(self, host: str) -> None:
        self._hellos.pop(host, None)
        self._all_registered.clear()
        self.sim.emit("net.daemon_lost", host)
        if not self.eager_detection:
            return  # leases will notice
        for app in self.apps.values():
            for record in app.records.values():
                if (
                    record.host == host
                    and record.dispatched
                    and not (record.done or record.failed)
                ):
                    self._strand(app, record, reason="connection-lost",
                                 via="daemon-takeover")

    def _strand(self, app: NetworkApp, record: _Record, reason: str, via: str) -> None:
        if record.stranded_at is not None:
            return  # already stranded; one redispatch pending
        record.stranded_at = self.sim.now
        self.sim.emit(
            "recovery.strand", app.id,
            task=record.task, rank=record.rank, epoch=record.epoch,
            host=record.host, reason=reason,
        )
        # every strand is already a detection (EOF, lease expiry, TaskFailed)
        self._redispatch(app, record, record.epoch, via)

    def _redispatch(self, app: NetworkApp, record: _Record, epoch: int, via: str) -> None:
        if record.done or record.failed or record.epoch != epoch:
            record.stranded_at = None
            return
        if record.attempts >= self.failover.max_redispatches:
            self.sim.emit(
                "recovery.gave_up", app.id,
                task=record.task, rank=record.rank, attempts=record.attempts,
            )
            record.failed = True
            self._fail_app(app)
            return
        src = record.host
        target = self._pick_host(record)
        if target is None:
            self.sim.schedule(
                self.failover.lease,
                lambda: self._redispatch(app, record, epoch, via),
            )
            return
        latency = self.sim.now - (record.stranded_at or self.sim.now)
        record.stranded_at = None
        record.epoch += 1
        record.attempts += 1
        record.host = target
        record.dispatched = False
        self.sim.emit(
            "recovery.redispatch", app.id,
            task=record.task, rank=record.rank,
            src=src, dst=target, via=via,
            attempt=record.attempts, latency=latency, restored=False,
        )
        self._dispatch(app, record)

    # --------------------------------------------------------------- commit

    def _commit(self, done: TaskDone) -> None:
        app = self.apps.get(done.app)
        if app is None:
            return
        record = app.records.get((done.task, done.rank))
        if record is None:
            return
        if record.done or done.epoch != record.epoch:
            self.sim.emit(
                "runtime.stale_commit", app.id,
                task=done.task, rank=done.rank,
                epoch=done.epoch, current=record.epoch,
            )
            return
        # sorted: tasks one commit releases dispatch in (task, rank) order
        for task in sorted(app.commit(record, done.result)):
            self._dispatch_task(app, task)
        if app.done:
            self._finish_app(app)

    def _task_failed(self, failed: TaskFailed) -> None:
        app = self.apps.get(failed.app)
        if app is None:
            return
        record = app.records.get((failed.task, failed.rank))
        if record is None or record.done or failed.epoch != record.epoch:
            return
        self._strand(app, record, reason="instance-failed", via="timeout")

    def _finish_app(self, app: NetworkApp) -> None:
        self.sim.emit("app.done", app.id, tasks=len(app.records))
        self.router.broadcast(
            Envelope(EXEC_ADDR, Address("*", "daemon"), TerminateNotice(app.id))
        )
        app.finished.set()

    def _fail_app(self, app: NetworkApp) -> None:
        app.failed = True
        self.sim.emit("app.failed", app.id)
        app.finished.set()

    # ---------------------------------------------------------------- chaos

    def schedule_chaos(self, actions: list) -> None:
        """Map a chaos schedule onto real processes: ``crash`` →
        ``SIGKILL`` of the daemon subprocess at the action's (sim) time,
        ``restart`` → respawn.  Other fault kinds are network-shaping
        knobs that have no real-socket implementation yet; they are
        logged and skipped (docs/NETWORK.md)."""
        for action in actions:
            if action.kind == "crash":
                self.sim.schedule_at(
                    max(action.time, self.sim.now),
                    lambda target=action.target: self.kill_daemon(target),
                )
            elif action.kind == "restart":
                self.sim.schedule_at(
                    max(action.time, self.sim.now),
                    lambda target=action.target: self.restart_daemon(target),
                )
            else:
                self.sim.emit(
                    "fault.skipped", action.target or "*", kind=action.kind
                )

    def kill_daemon(self, host: str) -> None:
        """Real SIGKILL — the network backend's chaos ``crash``."""
        proc = self._procs.get(host)
        if proc is None or proc.poll() is not None:
            return
        self.sim.emit("fault.crash", host, pid=proc.pid, signal="SIGKILL")
        proc.send_signal(signal.SIGKILL)

    def restart_daemon(self, host: str) -> None:
        """Respawn a killed daemon (it reconnects and re-registers)."""
        proc = self._procs.get(host)
        if proc is not None and proc.poll() is None:
            return  # still alive
        argv = self._spawn_args.get(host)
        if argv is None:
            return
        self.sim.emit("fault.restart", host)
        env = dict(os.environ)
        src_root = str(Path(__file__).resolve().parents[2])
        env["PYTHONPATH"] = src_root + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self._procs[host] = subprocess.Popen(
            argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
        )

    # -------------------------------------------------------------- running

    async def adrive(self, app: NetworkApp, timeout: float = 60.0) -> NetworkApp:
        """Pump the wall-clock loop until *app* finishes (wall *timeout*)."""
        drive = asyncio.get_running_loop().create_task(
            self.sim.drive(stop_when=lambda: app.finished.is_set())
        )
        try:
            await asyncio.wait_for(app.finished.wait(), timeout)
        finally:
            drive.cancel()
            try:
                await drive
            except (asyncio.CancelledError, Exception):
                pass
        return app

    async def ashutdown(self) -> None:
        """Stop daemons and close sockets; leaves no orphan processes."""
        self.router.broadcast(Shutdown())
        await asyncio.sleep(0.05)
        await self.router.close()
        for proc in self._procs.values():
            if proc.poll() is None:
                proc.terminate()
        for proc in self._procs.values():
            try:
                proc.wait(timeout=3.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=3.0)
        self.sim.release()
        self._booted = False

    def run_workload(
        self,
        workload: WorkloadSpec,
        timeout: float = 60.0,
        chaos: list | None = None,
    ) -> NetworkApp:
        """Boot, submit, drive to completion, shut down (sync wrapper)."""

        async def _run() -> NetworkApp:
            await self.aboot(workload)
            try:
                app = await self.asubmit(workload)
                if chaos:
                    self.schedule_chaos(chaos)
                await self.adrive(app, timeout)
                return app
            finally:
                await self.ashutdown()

        return asyncio.run(_run())

    # -------------------------------------------------------------- queries

    def orphan_pids(self) -> list[int]:
        """PIDs of daemon subprocesses still running (leak check)."""
        return [p.pid for p in self._procs.values() if p.poll() is None]
