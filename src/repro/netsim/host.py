"""Simulated hosts and process addressing.

A :class:`Host` is the simulation-level stand-in for one machine on the VCE
network. It owns named :class:`~repro.netsim.process.SimProcess` actors
(the VCE daemon, task instances, ...), a speed factor used by the compute
model, and an up/down state driven by the chaos controller.

Machine *semantics* (architecture class, memory, object-code format) live in
``repro.machines.Machine``; the Host carries a reference to that description
once a cluster is built, keeping the network simulator ignorant of VCE
concepts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterator

from repro.util.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.netsim.kernel import Simulator
    from repro.netsim.network import Network
    from repro.netsim.process import SimProcess


class Address:
    """Location of a process: ``(host name, process name)``.

    Immutable and hashable.  Addresses key the dicts on every message hop
    and membership check, so the hash is computed once at construction and
    equality short-circuits on identity (processes cache their own address,
    making identity hits the common case).  ``str()`` names the source of
    every traced channel send, so it is kept next to the hash.
    """

    __slots__ = ("host", "proc", "_hash", "_str")

    def __init__(self, host: str, proc: str) -> None:
        object.__setattr__(self, "host", host)
        object.__setattr__(self, "proc", proc)
        object.__setattr__(self, "_hash", hash((host, proc)))
        object.__setattr__(self, "_str", f"{host}/{proc}")

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"Address is immutable (cannot set {name!r})")

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: Any) -> bool:
        if self is other:
            return True
        if type(other) is not Address:
            return NotImplemented
        return self.host == other.host and self.proc == other.proc

    def __reduce__(self) -> tuple[Any, ...]:
        return (Address, (self.host, self.proc))

    def __repr__(self) -> str:  # pragma: no cover - repr convenience
        return f"Address(host={self.host!r}, proc={self.proc!r})"

    def __str__(self) -> str:
        return self._str


class Host:
    """One simulated machine.

    Args:
        sim: the owning simulator.
        name: unique host name.
        speed: relative CPU speed (work units per second); the executor
            divides task work by this to get compute durations.
    """

    def __init__(self, sim: "Simulator", name: str, speed: float = 1.0) -> None:
        if speed <= 0:
            raise SimulationError(f"host speed must be positive, got {speed}")
        self.sim = sim
        self.name = name
        self.speed = speed
        self.up = True
        self.network: "Network | None" = None
        self.machine: Any = None  # repro.machines.Machine, attached by cluster builder
        self._processes: dict[str, "SimProcess"] = {}
        self._boot_count = 0  # incarnation number, bumped on recover

    # -- process management --------------------------------------------------

    def spawn(self, process: "SimProcess") -> Address:
        """Attach *process* to this host and start it."""
        if process.name in self._processes:
            raise SimulationError(
                f"process {process.name!r} already exists on host {self.name!r}"
            )
        self._processes[process.name] = process
        process._bind(self)
        if self.up:
            self.sim.call_soon(process._start, host=self.name)
        return process.address

    def adopt(self, process: "SimProcess") -> Address:
        """Move an already-running process onto this host, preserving its
        entire in-memory state (mailboxes, generators, timers).

        This is the simulation-level primitive behind address-space-dump
        migration: the process object *is* the address space. The caller is
        responsible for charging transfer time and rebinding channels.
        """
        if process.name in self._processes:
            raise SimulationError(
                f"process {process.name!r} already exists on host {self.name!r}"
            )
        if process.host is not None:
            process.host._processes.pop(process.name, None)
        process.host = self
        process._invalidate_address_cache()
        self._processes[process.name] = process
        return process.address

    def kill(self, proc_name: str) -> None:
        """Remove a process from this host (it gets an ``on_stop`` callback).
        Killing a process the network watches (a group member) raises the
        disturbance edge first — its peers must start looking for it."""
        process = self._processes.pop(proc_name, None)
        if process is not None:
            if self.network is not None and self.network.watches(process):
                self.network.disturb(process)
            process._stopped()

    def reap(self, proc_name: str) -> None:
        """Remove a *dead* process without lifecycle callbacks (it already
        got ``on_crash``). Used when rebooting a daemon after a host crash:
        the old corpse must be cleared before ``spawn`` accepts the name
        again. No-op if the process is alive or absent."""
        process = self._processes.get(proc_name)
        if process is not None and not process.alive:
            del self._processes[proc_name]

    def release(self, process: "SimProcess") -> None:
        """Remove a process that ended on its own (a task instance that
        finished or failed), without lifecycle callbacks, as :meth:`reap`
        clears a corpse: later messages to it are dropped, and a crash of
        this host no longer reaches it. No-op unless *process* is the one
        registered under its name."""
        if self._processes.get(process.name) is process:
            del self._processes[process.name]

    def process(self, name: str) -> "SimProcess | None":
        return self._processes.get(name)

    def processes(self) -> Iterator["SimProcess"]:
        return iter(list(self._processes.values()))

    # -- delivery ------------------------------------------------------------

    def deliver(self, message: Any) -> bool:
        """Hand an arriving network message to the addressed process; True
        when a live process received it.

        Messages to a down host or a dead process are silently dropped —
        exactly what a real crashed machine does.
        """
        if self.up:
            process = self._processes.get(message.dst.proc)
            if process is not None and process.alive:
                process.on_message(message.src, message.payload)
                return True
        return False

    # -- fault injection -------------------------------------------------------

    def crash(self) -> None:
        """Take the host down: every process is stopped, future deliveries and
        timers are dropped."""
        if not self.up:
            return
        if self.network is not None:
            self.network.disturb(*self._processes.values())
        self.up = False
        self.sim.emit("host.crash", self.name)
        for process in list(self._processes.values()):
            process._crashed()

    def recover(self) -> None:
        """Bring the host back up. Processes killed by the crash do not
        restart automatically — a recovering VCE machine reboots its daemon
        explicitly (the chaos controller's ``restart`` does)."""
        if self.up:
            return
        if self.network is not None:
            self.network.disturb()
        self.up = True
        self._boot_count += 1
        self.sim.emit("host.recover", self.name, incarnation=self._boot_count)

    @property
    def incarnation(self) -> int:
        return self._boot_count

    def __repr__(self) -> str:  # pragma: no cover
        state = "up" if self.up else "DOWN"
        return f"<Host {self.name} speed={self.speed} {state}>"
