"""Actor base class for simulated processes.

A :class:`SimProcess` lives on one :class:`~repro.netsim.host.Host`, reacts
to messages (``on_message``) and named timers (``on_timer``), and can send
messages and arm cancellable timers. All VCE runtime components — scheduler
daemons, task instances, the execution program — derive from it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.netsim.host import Address
from repro.netsim.kernel import Timer
from repro.util.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.netsim.host import Host
    from repro.netsim.kernel import Simulator
    from repro.util.eventlog import Category


class SimProcess:
    """Base class for all simulated actors.

    Lifecycle hooks (override as needed):

    - ``on_start()`` — process attached to an up host.
    - ``on_message(src, payload)`` — a network message arrived.
    - ``on_timer(key)`` — a timer armed with ``set_timer`` fired.
    - ``on_stop()`` — killed deliberately (host still up).
    - ``on_crash()`` — host went down underneath us.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.host: "Host | None" = None
        self.alive = False
        self._timers: dict[str, Timer] = {}
        # address cache: built on first use, dropped on migration (adopt)
        self._addr: Address | None = None
        self._addr_str: str | None = None

    # -- plumbing (called by Host) -------------------------------------------

    def _bind(self, host: "Host") -> None:
        if self.host is not None:
            raise SimulationError(f"process {self.name!r} already bound")
        self.host = host

    def _start(self) -> None:
        if self.host is None or not self.host.up:
            return
        self.alive = True
        self.on_start()

    def _stopped(self) -> None:
        self.alive = False
        self._cancel_all_timers()
        self.on_stop()

    def _crashed(self) -> None:
        self.alive = False
        self._cancel_all_timers()
        self.on_crash()

    def _cancel_all_timers(self) -> None:
        for timer in self._timers.values():
            timer.cancel()
        self._timers.clear()

    # -- effects ---------------------------------------------------------------

    @property
    def sim(self) -> "Simulator":
        if self.host is None:
            raise SimulationError(f"process {self.name!r} not bound to a host")
        return self.host.sim

    @property
    def address(self) -> Address:
        addr = self._addr
        if addr is None:
            if self.host is None:
                raise SimulationError(f"process {self.name!r} not bound to a host")
            addr = self._addr = Address(self.host.name, self.name)
            self._addr_str = str(addr)
        return addr

    def _invalidate_address_cache(self) -> None:
        """Called when the process moves hosts (migration adopt)."""
        self._addr = None
        self._addr_str = None

    @property
    def now(self) -> float:
        return self.sim.now

    def send(self, dst: Address, payload: Any, size: int = 256) -> None:
        """Send a message through the network (dropped if we are dead)."""
        host = self.host
        if not self.alive or host is None or host.network is None:
            return
        host.network.send(self._addr or self.address, dst, payload, size)

    def set_timer(self, delay: float, key: str, daemon: bool = False) -> None:
        """Arm (or re-arm) the named timer; ``on_timer(key)`` fires once after
        *delay* seconds unless cancelled.

        A *daemon* timer (periodic samplers, monitors) never keeps the
        simulation alive — same contract as :meth:`Simulator.schedule`.
        """
        self.cancel_timer(key)
        sim = self.sim
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        timers = self._timers

        def fire() -> None:
            timers.pop(key, None)
            if self.alive:
                self.on_timer(key)

        # sim.now + delay is what Simulator.schedule would compute
        timers[key] = sim.schedule_at(
            sim.now + delay, fire, daemon=daemon, host=self.host.name
        )

    def cancel_timer(self, key: str) -> None:
        timer = self._timers.pop(key, None)
        if timer is not None:
            timer.cancel()

    def has_timer(self, key: str) -> bool:
        return key in self._timers

    def emit(self, category: str | Category, *values: Any, **data: Any) -> None:
        """Write to the run-wide event log, tagged with this process
        (a category name with keywords, or a handle with positional values)."""
        source = self._addr_str
        if source is None:
            self.address  # populate the cache (raises if unbound)
            source = self._addr_str
        self.host.sim.emit(category, source, *values, **data)

    # -- hooks -------------------------------------------------------------------

    def on_start(self) -> None:  # pragma: no cover - default no-op
        pass

    def on_message(self, src: Address, payload: Any) -> None:  # pragma: no cover
        pass

    def on_timer(self, key: str) -> None:  # pragma: no cover - default no-op
        pass

    def on_stop(self) -> None:  # pragma: no cover - default no-op
        pass

    def on_crash(self) -> None:  # pragma: no cover - default no-op
        pass

    def __repr__(self) -> str:  # pragma: no cover
        where = self.host.name if self.host else "<unbound>"
        return f"<{type(self).__name__} {self.name} on {where}>"
