"""The wall-clock event loop behind ``VCEConfig(backend="network")``.

:class:`WallClockSimulator` implements the :class:`~repro.netsim.backend.
SimBackend` contract with real time instead of the tombstone heap's
virtual time: ``now`` is wall-clock seconds since the loop started,
scaled by a *rate* (simulated seconds per wall second, the same knob as
:class:`~repro.netsim.pacing.WallClockPacer`), and timers fire from an
asyncio loop interleaved with real socket traffic.

What survives of the netsim contract, and what deliberately does not:

- **Survives**: the scheduling API (``schedule``/``schedule_at``/
  ``call_soon`` with ``daemon`` and ``host`` tags), lazy idempotent
  ``cancel``, ``pending`` counting live entries, daemon events never
  keeping :meth:`run` alive, and the component-facing surface the rest
  of the tree expects of a simulator (``log``, ``ids``, ``rng``,
  ``telemetry``, ``hb``, ``emit``).
- **Does not**: the exact ``(time, seq)`` total order.  Wall time is not
  virtual time; two timers 1 ms apart may be reordered by OS scheduling.
  Event *interleavings* are therefore not digest-stable on this backend —
  only task outcomes are (see docs/NETWORK.md for the contract).  The
  conformance suite keeps its (time, seq) sections on the serial kernel
  for exactly this reason.

Wall-clock reads in this module are the backend's whole point, not a
determinism leak; the module lives outside detlint's scanned scope, the
same carve-out the pacer documents.
"""

from __future__ import annotations

import asyncio
import heapq
import time
from typing import Any, Callable

from repro.netsim.pacing import WallClockPacer
from repro.netsim.backend import SimBackend
from repro.util.errors import SimulationError
from repro.util.eventlog import Category, EventLog
from repro.util.ids import IdGenerator
from repro.util.rng import RngStreams


class _WallTimer:
    """Cancellable timer handle (duck-typed like the kernel's timers)."""

    __slots__ = ("time", "seq", "callback", "daemon", "host", "cancelled", "fired")

    def __init__(
        self,
        when: float,
        seq: int,
        callback: Callable[[], None],
        daemon: bool,
        host: str | None,
    ) -> None:
        self.time = when
        self.seq = seq
        self.callback = callback
        self.daemon = daemon
        self.host = host
        self.cancelled = False
        self.fired = False

    def cancel(self) -> None:
        self.cancelled = True

    def __lt__(self, other: "_WallTimer") -> bool:
        # (time, seq) order without building two tuples per heap comparison
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq


class WallClockSimulator(SimBackend):
    """A :class:`SimBackend` paced by real time (see module docstring).

    Args:
        seed: root seed for the run's rng streams and id generator (task
            outcomes stay seed-deterministic even though interleavings
            are not).
        rate: simulated seconds per wall-clock second.  The network VCE
            runs sim-denominated durations — compute work, failover
            leases, chaos schedules — through this scale so an 8-second
            lease need not cost 8 wall seconds in tests.
    """

    backend_name = "network"

    def __init__(self, seed: int = 0, rate: float = 1.0) -> None:
        if rate <= 0.0:
            raise SimulationError(f"wall-clock rate must be positive, got {rate}")
        self.seed = seed
        self.rate = rate
        self.pacer = WallClockPacer(rate)
        self.log = EventLog()
        self.ids = IdGenerator()
        self.rng = RngStreams(seed)
        self.telemetry: Any = None
        self.hb: Any = None
        self._heap: list[_WallTimer] = []
        self._seq = 0
        self._origin: float | None = None
        self._live_nondaemon = 0
        self._fired = 0
        #: asyncio.Event set whenever a new timer may need an earlier wake
        self._kick: asyncio.Event | None = None
        #: external keep-alive claims (open sockets, live subprocesses);
        #: ``run`` does not exit while any are held even if the heap drains
        self._external_work = 0

    # -- time --------------------------------------------------------------

    @property
    def now(self) -> float:
        """Simulated seconds since :meth:`start` (wall elapsed × rate)."""
        if self._origin is None:
            return 0.0
        # the wall clock IS this backend's clock (module docstring)
        return (time.monotonic() - self._origin) * self.rate  # detlint: ok(D001)

    def start(self) -> None:
        """Anchor sim time 0 at this wall instant (idempotent)."""
        if self._origin is None:
            self._origin = time.monotonic()  # detlint: ok(D001)
            self.pacer.start(0.0)

    def set_rate(self, rate: float) -> None:
        """Change the sim-seconds-per-wall-second scale (before start)."""
        if self._origin is not None:
            raise SimulationError("cannot change the clock rate after start")
        if rate <= 0.0:
            raise SimulationError(f"wall-clock rate must be positive, got {rate}")
        self.rate = rate
        self.pacer.rate = rate

    @property
    def events_processed(self) -> int:
        return self._fired

    # -- component surface -------------------------------------------------

    def emit(self, category: str | Category, source: str, *values: Any, **data: Any) -> None:
        """Append to the run's event log, stamped with the current time
        (:meth:`repro.netsim.kernel.Simulator.emit`'s two forms)."""
        if type(category) is Category:
            self.log.write(category, self.now, source, values)
        else:
            self.log.append(self.now, category, source, data)

    # -- external work (sockets, subprocesses) -----------------------------

    def hold(self) -> None:
        """Claim the loop: :meth:`run` keeps going while holds are open."""
        self._external_work += 1

    def release(self) -> None:
        self._external_work = max(0, self._external_work - 1)
        self._wake()

    # -- scheduling --------------------------------------------------------

    def schedule(
        self,
        delay: float,
        callback: Callable[[], None],
        daemon: bool = False,
        host: str | None = None,
    ) -> _WallTimer:
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return self._push(self.now + delay, callback, daemon, host)

    def schedule_at(
        self,
        time: float,
        callback: Callable[[], None],
        daemon: bool = False,
        host: str | None = None,
    ) -> _WallTimer:
        if time < self.now:
            raise SimulationError(
                f"cannot schedule in the past (t={time} < now={self.now})"
            )
        return self._push(time, callback, daemon, host)

    def call_soon(
        self,
        callback: Callable[[], None],
        daemon: bool = False,
        host: str | None = None,
    ) -> _WallTimer:
        return self._push(self.now, callback, daemon, host)

    def _push(
        self,
        when: float,
        callback: Callable[[], None],
        daemon: bool,
        host: str | None,
    ) -> _WallTimer:
        timer = _WallTimer(when, self._seq, callback, daemon, host)
        self._seq += 1
        heapq.heappush(self._heap, timer)
        if not daemon:
            self._live_nondaemon += 1
        self._wake()
        return timer

    def _wake(self) -> None:
        if self._kick is not None:
            self._kick.set()

    # -- running -----------------------------------------------------------

    def step(self) -> bool:
        """Fire the next *due* timer, waiting for it if necessary."""
        self.start()
        while self._heap:
            timer = self._heap[0]
            if timer.cancelled:
                heapq.heappop(self._heap)
                continue
            wait = (timer.time - self.now) / self.rate
            if wait > 0:
                time.sleep(wait)
            heapq.heappop(self._heap)
            self._fire(timer)
            return True
        return False

    def _fire(self, timer: _WallTimer) -> None:
        timer.fired = True
        if not timer.daemon:
            self._live_nondaemon -= 1
        self._fired += 1
        timer.callback()

    def _pop_due(self) -> list[_WallTimer]:
        """All timers due at the current instant, (time, seq)-ordered."""
        due: list[_WallTimer] = []
        now = self.now
        while self._heap:
            timer = self._heap[0]
            if timer.cancelled:
                heapq.heappop(self._heap)
                continue
            if timer.time > now:
                break
            due.append(heapq.heappop(self._heap))
        return due

    def _next_wait(self) -> float | None:
        """Wall seconds until the earliest live timer; None for empty."""
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
        if not self._heap:
            return None
        return max(0.0, (self._heap[0].time - self.now) / self.rate)

    def _done(self, stop_when: Callable[[], bool] | None) -> bool:
        if stop_when is not None and stop_when():
            return True
        return self._live_nondaemon == 0 and self._external_work == 0

    async def drive(
        self,
        until: float | None = None,
        max_events: int | None = None,
        stop_when: Callable[[], bool] | None = None,
    ) -> float:
        """Async pump: fire due timers, sleep until the next one, yield to
        the socket machinery in between.  The asyncio twin of ``run``."""
        self.start()
        self._kick = asyncio.Event()
        fired = 0
        try:
            while True:
                for timer in self._pop_due():
                    if until is not None and timer.time > until:
                        # past the horizon: put it back un-fired and stop
                        heapq.heappush(self._heap, timer)
                        return self.now
                    self._fire(timer)
                    fired += 1
                    if max_events is not None and fired >= max_events:
                        return self.now
                    await asyncio.sleep(0)  # let socket callbacks interleave
                if self._done(stop_when):
                    return self.now
                wait = self._next_wait()
                if wait is None:
                    if self._external_work == 0 and self._live_nondaemon == 0:
                        return self.now
                    wait = 0.05  # idle poll while sockets are live
                if until is not None:
                    horizon = max(0.0, (until - self.now) / self.rate)
                    if horizon == 0.0:
                        return self.now
                    wait = min(wait, horizon)
                self._kick.clear()
                try:
                    await asyncio.wait_for(self._kick.wait(), timeout=min(wait, 0.25))
                except asyncio.TimeoutError:
                    pass
        finally:
            self._kick = None

    def run(
        self,
        until: float | None = None,
        max_events: int | None = None,
        stop_when: Callable[[], bool] | None = None,
    ) -> float:
        """Blocking wrapper around :meth:`drive` (no loop already running)."""
        return asyncio.run(self.drive(until, max_events, stop_when))

    # -- observation -------------------------------------------------------

    @property
    def pending(self) -> int:
        return sum(1 for t in self._heap if not t.cancelled)

    # -- sanitizer seams ---------------------------------------------------

    def set_tie_shuffle(self, salt: int) -> None:
        """Tie shuffle is meaningless under wall time: there are no
        deterministic ties to permute.  Accept 0 (the no-op) so generic
        drivers can call this unconditionally; reject real salts."""
        if salt != 0:
            raise SimulationError(
                "tie-shuffle requires the virtual-time (serial) backend, "
                "not the network backend"
            )
