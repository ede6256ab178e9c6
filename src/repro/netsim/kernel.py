"""The discrete-event kernel: the one virtual-time engine.

Everything above it — hosts, network, processes, the whole VCE — talks to
the event loop through :class:`Simulator`.  (The real-process network
backend, :mod:`repro.netexec`, runs on asyncio and keeps only a wall
clock; see docs/NETWORK.md.)

A :class:`Simulator` holds a heap of ``(time, skey, timer)`` tuples.  The
sort key ``skey`` (the scheduling sequence number, unless tie-shuffle is on)
breaks ties so that events scheduled earlier at the same timestamp run
earlier — a deterministic total order, which is essential for
reproducible experiments.

The contract (``tests/test_backend_conformance.py`` enforces it):

- Events fire in exact ``(time, seq)`` order, where ``seq`` is the global
  scheduling order — a unique total order, so replay digests are
  reproducible byte for byte.
- ``call_soon`` entries at one timestamp fire FIFO, after already-queued
  events at that timestamp.
- ``cancel`` is lazy, idempotent, and a no-op on terminal entries (fired,
  already cancelled, or left behind by a fully drained heap).
- ``pending`` equals the number of live (uncancelled, unfired) entries.
- Daemon events never keep ``run()`` alive.
- The scheduling calls take a ``host`` tag that never affects ordering;
  perfbench's tracer wraps the three scheduling methods by name, so their
  signatures stay as they are.

The loop is a hot path: every message hop, timer tick, and compute slice in a
run goes through it.  Heap items are plain ``(time, skey, timer)`` tuples,
so ``heapq`` orders them with C tuple comparison (``(time, skey)`` is unique,
so the third field is never compared); the :class:`Timer` in the tuple is
both the entry and the caller's cancellation handle, one object per
scheduled event besides the tuple.  ``pending`` is O(1) via a
cancelled-entry counter, and cancelled entries are compacted out of the heap
once they dominate it so cancel-heavy workloads (retry timers, heartbeat
reschedules) cannot grow the heap without bound.  None of this changes the
pop order — the (time, seq) total order is unique, so compaction and batching
are invisible to replay digests.

A run freezes the heap it inherits: :meth:`Simulator.run` calls
``gc.freeze()`` on entry and ``gc.unfreeze()`` on exit (both O(1) list
splices), unless the caller has frozen objects of its own.  A collection
during the run then walks only what the run allocated, never the set-up
heap (the cluster, the graphs, the imported modules), and nothing stays
frozen once ``run`` returns.  It relies on a run making no cyclic
garbage: what an event allocates dies by reference count.  Were that
broken, a cycle one ``run`` call left behind would sit frozen through the
next, so a caller advancing the clock in many short calls would pile them
up.  ``tests/test_gc_contract.py`` pins the invariant on every cost ledger
scenario; a callback that closes over itself breaks it.

Grid points are read off the clock, not the heap.  One clock observer
(:meth:`Simulator.observe_grid`, the telemetry sampler) is called at fixed
grid times without being a kernel event: before the loop advances the clock
to a batch at ``t`` it sets the clock to each due grid point ``g <= t`` in
turn and calls the observer, which returns the next grid time.  The check is
one comparison per timestamp batch.  A grid point at ``g`` therefore reads
the state after every event before ``g`` and before any event at ``g``; an
idle stretch costs no heap push, no ``Timer`` and no event.

Two opt-in sanitizer seams ride the same hot path (both cost one predictable
branch per event when disabled):

- **Happens-before tracking** (``sim.hb``): when an
  :class:`repro.analysis.hb.HBTracker` is attached, every scheduled entry
  records the tracker node of the event that scheduled it, and the loop
  publishes the firing entry's node before its callback runs.  The resulting
  schedule-parent tree *is* the happens-before relation of the run (message
  send→receive, timer create→fire, and program order are all schedule
  edges), which the race detector queries.  The tracker only observes — it
  emits no events, so replay digests are unchanged with it attached.
- **Tie-shuffle** (:meth:`Simulator.set_tie_shuffle`): entries are ordered by
  ``(time, skey)`` where ``skey`` defaults to ``seq`` (byte-identical to the
  historical order).  A non-zero shuffle salt mixes the *scheduling parent's*
  sequence number into the high bits of ``skey``, permuting same-timestamp
  ties across different causal parents while preserving FIFO order among
  events scheduled by the same parent (the ``call_soon`` contract).  Any
  behavioural difference between salts is real order-dependence — the
  confirmation signal ``repro sanitize`` uses to classify races.
"""

from __future__ import annotations

import gc
import heapq
import math
from typing import TYPE_CHECKING, Any, Callable

from repro.util.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.telemetry.registry import MetricsRegistry
from repro.util.eventlog import Category, EventLog
from repro.util.ids import IdGenerator
from repro.util.rng import RngStreams

#: Compaction triggers when more than half the heap is cancelled tombstones,
#: but never below this floor — tiny heaps are cheaper to pop than to rebuild.
_COMPACT_MIN = 64


#: Knuth's multiplicative-hash constant; mixes the scheduling parent's seq
#: into the tie-shuffle sort key (bijective over 32 bits, so keys stay unique).
_TIE_MIX_MUL = 0x9E3779B1


class Timer:
    """A scheduled event: the heap entry and its cancellation handle.

    Cancellation is lazy: the entry is flagged and skipped when popped,
    which keeps ``cancel`` O(1) (amortised — see ``Simulator._compact``).
    """

    __slots__ = ("time", "seq", "callback", "cancelled", "daemon", "fired", "hb", "_sim")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[[], None],
        daemon: bool,
        sim: "Simulator",
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        self.daemon = daemon
        self.fired = False
        #: happens-before tracker node of the scheduling event (0 = root)
        self.hb = 0
        self._sim = sim

    def cancel(self) -> None:
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        sim = self._sim
        if not sim._heap:
            # Terminal: the heap has fully drained, so this entry cannot be
            # queued anywhere a tombstone would be skipped from.  Counting
            # it would leave the cancelled-entry counter inconsistent with
            # an empty heap (``pending`` would go negative) and corrupt the
            # live-event count for later runs.  Mark it cancelled and stop.
            return
        if not self.daemon:
            sim._live_nondaemon -= 1
        sim._cancelled_in_heap += 1
        if (
            sim._cancelled_in_heap > _COMPACT_MIN
            and sim._cancelled_in_heap * 2 > len(sim._heap)
        ):
            sim._compact()


class Simulator:
    """A deterministic discrete-event simulator — the ``serial`` backend.

    Args:
        seed: root seed for every random stream derived from this run.

    The simulator also owns the run-wide :class:`EventLog`, the id generator,
    and the :class:`RngStreams` factory so that components created for one
    simulation never share state with another.
    """

    def __init__(self, seed: int = 0) -> None:
        self._heap: list[tuple[float, int, Timer]] = []
        self._seq = 0
        self._now = 0.0
        self._running = False
        self._events_processed = 0
        self._live_nondaemon = 0
        self._cancelled_in_heap = 0
        self._compactions = 0
        self.seed = seed
        self.log = EventLog()
        self.ids = IdGenerator()
        self.rng = RngStreams(seed)
        #: live metrics registry, installed by the telemetry service; None
        #: when telemetry is off — instrumented components must None-check
        self.telemetry: "MetricsRegistry | None" = None
        #: attached happens-before tracker (``repro.analysis.hb.HBTracker``)
        #: or None; instrumented components must None-check before noting
        #: accesses, and the scheduling/firing hot paths below feed it
        self.hb: Any = None
        # tie-shuffle state: 0 = historical (time, seq) order
        self._tie_mix = 0
        self._firing_seq = 0
        # the clock observer (see observe_grid): its callback, the time of
        # its next grid point, and that point's happens-before node
        self._grid_observer: Callable[[], float] | None = None
        self._grid_at = math.inf
        self._grid_hb = 0
        self._grid_host: str | None = None

    # -- time --------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        return self._events_processed

    # -- sanitizer seams ---------------------------------------------------

    def set_tie_shuffle(self, salt: int) -> None:
        """Install a tie-shuffle *salt* (0 disables — the default order).

        With a non-zero salt, same-timestamp events whose *scheduling
        parents* differ are committed in a seeded pseudo-random permutation
        instead of scheduling order, while events scheduled by the same
        parent keep their FIFO order.  Every salt still yields a unique
        deterministic total order, so a shuffled run is itself perfectly
        reproducible — ``repro sanitize`` diffs runs across salts to confirm
        or clear suspected races.
        """
        if self._running:
            raise SimulationError("cannot change tie-shuffle while running")
        if salt < 0:
            raise SimulationError(f"tie-shuffle salt must be >= 0, got {salt}")
        self._tie_mix = salt & 0xFFFFFFFF

    def _skey(self, seq: int) -> int:
        """Sort key for a new entry (inlined in the scheduling fast paths)."""
        mix = self._tie_mix
        if not mix:
            return seq
        parent = ((self._firing_seq ^ mix) * _TIE_MIX_MUL) & 0xFFFFFFFF
        return (parent << 32) | (seq & 0xFFFFFFFF)

    # -- scheduling --------------------------------------------------------

    def schedule(
        self,
        delay: float,
        callback: Callable[[], None],
        daemon: bool = False,
        host: str | None = None,
    ) -> Timer:
        """Run *callback* ``delay`` seconds from now. Returns a cancellable
        :class:`Timer`.

        A *daemon* event (periodic monitors, samplers) never keeps the
        simulation alive: ``run()`` without a deadline stops once only
        daemon events remain — the same contract as daemon threads.

        *host* names the simulated host the event belongs to.  One heap
        serves every host, so it never affects ordering; an attached
        happens-before tracker records it per event (``hb._node_hosts``).
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self.schedule_at(self._now + delay, callback, daemon=daemon, host=host)

    def schedule_at(
        self,
        time: float,
        callback: Callable[[], None],
        daemon: bool = False,
        host: str | None = None,
    ) -> Timer:
        """Run *callback* at absolute simulation time *time*."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={self._now}"
            )
        seq = self._seq
        self._seq = seq + 1
        timer = Timer(time, seq, callback, daemon, self)
        hb = self.hb
        if hb is not None:
            parents = hb._parents
            timer.hb = len(parents)
            parents.append(hb._current)
            hb._node_hosts.append(host)
        heapq.heappush(
            self._heap, (time, seq if not self._tie_mix else self._skey(seq), timer)
        )
        if not daemon:
            self._live_nondaemon += 1
        return timer

    def call_soon(
        self,
        callback: Callable[[], None],
        daemon: bool = False,
        host: str | None = None,
    ) -> Timer:
        """Run *callback* at the current time, after already-queued events at
        this timestamp.  Fast path: skips the delay/deadline validation that
        ``schedule``/``schedule_at`` perform, since ``now`` is always legal.
        """
        seq = self._seq
        self._seq = seq + 1
        now = self._now
        timer = Timer(now, seq, callback, daemon, self)
        hb = self.hb
        if hb is not None:
            parents = hb._parents
            timer.hb = len(parents)
            parents.append(hb._current)
            hb._node_hosts.append(host)
        heapq.heappush(
            self._heap, (now, seq if not self._tie_mix else self._skey(seq), timer)
        )
        if not daemon:
            self._live_nondaemon += 1
        return timer

    def cancel(self, timer: Timer) -> None:
        """Cancel a timer returned by a scheduling call (sugar for
        ``timer.cancel()``)."""
        timer.cancel()

    # -- the clock observer ------------------------------------------------

    def observe_grid(
        self, first: float, callback: Callable[[], float], host: str | None = None
    ) -> None:
        """Call *callback* at grid points read off the clock, not the heap.

        The first grid point is at *first*; each call returns the time of
        the next one (``math.inf`` stops observing and frees the slot).  A
        grid point at ``g`` sees the state after every event before ``g``
        and before any event at ``g``: the loop sets the clock to ``g`` and
        calls the observer before it advances to a batch at ``t >= g``.
        ``run(until=...)`` and :meth:`step` catch up to their time
        inclusively.  A grid point is no kernel event: it consumes no
        sequence number, adds nothing to ``events_processed`` or
        ``pending``, and never keeps ``run()`` alive.

        There is one slot (its user is the telemetry sampler); installing
        a second observer while one is active raises.  *host* is recorded
        by an attached happens-before tracker, as for :meth:`schedule`.
        """
        if self._grid_observer is not None:
            raise SimulationError("a grid observer is already installed")
        if first < self._now:
            raise SimulationError(
                f"cannot observe a grid point at t={first} before now={self._now}"
            )
        self._grid_observer = callback
        self._grid_at = first
        self._grid_host = host
        hb = self.hb
        if hb is not None:
            self._grid_hb = hb.on_schedule(host)

    def _run_grid_point(self) -> None:
        """Run the due grid point.  Under a happens-before tracker each grid
        point is a node of its own whose parent is the previous grid point,
        the chain a re-armed timer made; the observer's reads are booked to
        it, not to whichever event fired last."""
        at = self._now = self._grid_at
        hb = self.hb
        if hb is not None:
            hb._current = self._grid_hb
        following = self._grid_observer()
        if following == math.inf:
            self._grid_observer = None
        elif not following > at:
            raise SimulationError(f"grid point after t={at} must be later, got {following}")
        elif hb is not None:
            self._grid_hb = hb.on_schedule(self._grid_host)
        self._grid_at = following

    # -- running -----------------------------------------------------------

    def step(self) -> bool:
        """Process the single next event, after any grid point due at or
        before it. Returns False when the queue is empty."""
        heap = self._heap
        while heap:
            time, _, entry = heap[0]
            if entry.cancelled:
                heapq.heappop(heap)
                self._cancelled_in_heap -= 1
                continue
            if time >= self._grid_at:
                self._run_grid_point()
                continue  # the observer may have scheduled an earlier event
            heapq.heappop(heap)
            if entry.time < self._now:
                raise SimulationError("event queue produced time in the past")
            entry.fired = True
            if not entry.daemon:
                self._live_nondaemon -= 1
            self._now = entry.time
            self._events_processed += 1
            hb = self.hb
            if hb is not None:
                hb._current = entry.hb
            if self._tie_mix:
                self._firing_seq = entry.seq
            entry.callback()
            return True
        return False

    def run(
        self,
        until: float | None = None,
        max_events: int | None = None,
        stop_when: Callable[[], bool] | None = None,
    ) -> float:
        """Run the event loop.

        Args:
            until: stop once simulation time would exceed this (the clock is
                advanced to ``until`` on a timed-out run, after every grid
                point at or before it).
            max_events: safety valve against livelock; raises
                :class:`SimulationError` when hit.
            stop_when: checked after every event; return True to stop (grid
                points after that event are left to the next call).

        Returns the simulation time when the loop stopped.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run)")
        self._running = True
        processed = 0
        stopped_early = False
        heap = self._heap  # _compact mutates in place, so this alias is safe
        heappop = heapq.heappop
        # sanitizer seams, hoisted: both are fixed for the duration of a run
        # (attachment happens at VCE construction, set_tie_shuffle rejects
        # changes mid-run), so the disabled case costs one local check
        hb = self.hb
        mix = self._tie_mix
        # leave a caller's own freeze alone (see the module docstring)
        freeze = gc.get_freeze_count() == 0
        if freeze:
            gc.freeze()
        try:
            while True:
                if not heap:
                    if until is not None and self._grid_at <= until:
                        self._run_grid_point()
                        continue
                    break
                t, _, entry = heap[0]
                if entry.cancelled:
                    heappop(heap)
                    self._cancelled_in_heap -= 1
                    continue
                if until is not None:
                    if t > until:
                        if self._grid_at <= until:
                            self._run_grid_point()
                            continue
                        break
                elif self._live_nondaemon == 0:
                    break  # only daemon events (monitors) remain
                if t >= self._grid_at:
                    # once per batch, not per event; the observer may have
                    # scheduled something earlier than t, so look again
                    self._run_grid_point()
                    continue
                if t < self._now:
                    raise SimulationError("event queue produced time in the past")
                self._now = t
                # Drain the whole batch at timestamp t: the `until` bound and
                # past-time check hold for every entry in it, so only the
                # cheap per-event conditions are re-checked inside.
                while True:
                    heappop(heap)
                    entry.fired = True
                    if not entry.daemon:
                        self._live_nondaemon -= 1
                    self._events_processed += 1
                    if hb is not None:
                        hb._current = entry.hb
                    if mix:
                        self._firing_seq = entry.seq
                    entry.callback()
                    processed += 1
                    if stop_when is not None and stop_when():
                        stopped_early = True
                        break
                    if max_events is not None and processed >= max_events:
                        raise SimulationError(
                            f"max_events={max_events} exceeded; possible livelock"
                        )
                    if not heap:
                        break
                    next_t, _, entry = heap[0]
                    if entry.cancelled or next_t != t:
                        break
                    if until is None and self._live_nondaemon == 0:
                        break
                if stopped_early:
                    break
            if not stopped_early and until is not None and until > self._now:
                self._now = until
        finally:
            self._running = False
            if freeze:
                gc.unfreeze()
        return self._now

    def _compact(self) -> None:
        """Drop cancelled tombstones and re-heapify, in place.

        In-place (slice assignment) because ``run`` holds an alias to the
        heap list across callbacks, and a callback may cancel enough timers
        to trigger compaction mid-loop.  Rebuilding preserves the pop order:
        (time, skey) keys are unique (skey is seq, or a bijective mix of it
        under tie-shuffle), so any valid heap over the same live entries
        pops identically.
        """
        heap = self._heap
        heap[:] = [item for item in heap if not item[2].cancelled]
        heapq.heapify(heap)
        self._cancelled_in_heap = 0
        self._compactions += 1

    @property
    def pending(self) -> int:
        """Number of not-yet-cancelled queued events.  O(1)."""
        return len(self._heap) - self._cancelled_in_heap

    @property
    def compactions(self) -> int:
        """How many times the heap has been compacted (instrumentation)."""
        return self._compactions

    # -- convenience -------------------------------------------------------

    def emit(self, category: str | Category, source: str, *values: Any, **data: Any) -> None:
        """Shorthand for ``self.log.emit(self.now, ...)``: a category name
        takes a keyword payload, a :class:`~repro.util.eventlog.Category`
        handle a positional one, which builds no dict."""
        if type(category) is Category:
            self.log.write(category, self._now, source, values)
        else:
            self.log.append(self._now, category, source, data)
