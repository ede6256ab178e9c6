"""The simulation-backend seam.

Everything above the kernel — hosts, network, processes, the whole VCE — talks
to the event loop through the interface defined here.  :class:`SimBackend`
names the contract every backend must honour; which implementation a run gets
is chosen by name (``VCEConfig.backend``) through :func:`create_simulator`.

Two backends ship today — one virtual-time engine and one wall-clock one
(docs/PERFORMANCE.md, "Why there is one event engine"):

- ``serial`` — :class:`repro.netsim.kernel.Simulator`, the single tombstone
  heap: exact ``(time, seq)`` total order, byte-identical replay digests,
  the default.
- ``network`` — :class:`repro.netexec.wallclock.WallClockSimulator`, the
  wall-clock event loop under the real-process execution backend
  (``repro.netexec``, docs/NETWORK.md).  It keeps the scheduling/cancel/
  pending contract but paces by real time, so only task *outcomes* — not
  event interleavings — are digest-stable; it is driven by
  :class:`repro.netexec.supervisor.NetworkVCE`, not by the in-process
  :class:`~repro.core.environment.VirtualComputingEnvironment`.

The contract every backend must keep (the conformance suite in
``tests/test_backend_conformance.py`` enforces it):

- Events fire in exact ``(time, seq)`` order, where ``seq`` is the global
  scheduling order — a unique total order, so replay digests are
  reproducible.  (The ``network`` backend paces by the wall clock, so this
  clause is checked on the ``serial`` kernel only.)
- ``call_soon`` entries at one timestamp fire FIFO, after already-queued
  events at that timestamp.
- ``cancel`` is lazy, idempotent, and a no-op on terminal entries (fired,
  already cancelled, or left behind by a fully drained heap).
- ``pending`` equals the number of live (uncancelled, unfired) entries.
- Daemon events never keep ``run()`` alive.

The clock-observer seam is not part of this interface.  The telemetry
sampler's grid points are read off the clock, not the event heap
(:meth:`repro.netsim.kernel.Simulator.observe_grid`): a grid point at
``g`` runs before any event at ``g`` and is no event itself.  Only the
``serial`` kernel has it, because only the in-process
:class:`~repro.core.environment.VirtualComputingEnvironment` runs a
sampler, and it refuses ``backend="network"``.

Sanitizer seams (see :mod:`repro.analysis.hb` and docs/ANALYSIS.md) — two
further obligations every backend must honour so the happens-before race
sanitizer and the tie-shuffle harness work unchanged on top of it:

- **Schedule-parent feed.**  When a tracker is attached (``sim.hb`` is not
  None), every scheduling call allocates a tracker node recording the
  currently-firing event as its parent (``entry.hb = len(hb._parents);
  hb._parents.append(hb._current); hb._node_hosts.append(host)`` — or the
  :meth:`~repro.analysis.hb.HBTracker.on_schedule` method form), and every
  fire publishes its node (``hb._current = entry.hb``) before invoking the
  callback.  Ancestry in that tree is the happens-before relation; the
  tracker is a pure observer, so digests must be identical with it on.
- **Tie shuffle.**  ``set_tie_shuffle(salt)`` (non-zero *salt*) commits
  same-timestamp events whose scheduling parents differ in a seeded
  pseudo-random permutation instead of global scheduling order, while
  same-parent ties keep FIFO (the ``call_soon`` contract).  Every salt
  must yield a deterministic total order so shuffled runs are themselves
  reproducible; ``repro sanitize`` diffs outcome digests across salts to
  classify candidate races as real or benign.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable

from repro.util.errors import SimulationError

#: backend names accepted by :func:`create_simulator` / ``VCEConfig.backend``
BACKEND_NAMES = ("serial", "network")


class SimBackend(ABC):
    """Abstract discrete-event backend (see module docstring).

    Timer objects returned by the scheduling calls are duck-typed: they
    expose ``cancel()``, ``cancelled``, and ``time``.
    """

    #: registry name of the concrete backend ("serial" or "network")
    backend_name: str = "?"

    # -- scheduling --------------------------------------------------------

    @abstractmethod
    def schedule(
        self,
        delay: float,
        callback: Callable[[], None],
        daemon: bool = False,
        host: str | None = None,
    ) -> Any:
        """Run *callback* ``delay`` seconds from now; returns a cancellable
        timer.  *host* names the simulated host the event belongs to.
        It never affects ordering; an attached happens-before tracker
        (:mod:`repro.analysis.hb`) records it per event, and perfbench's
        tracer wraps the three scheduling methods by name, so the
        signatures stay as they are."""

    @abstractmethod
    def schedule_at(
        self,
        time: float,
        callback: Callable[[], None],
        daemon: bool = False,
        host: str | None = None,
    ) -> Any:
        """Run *callback* at absolute simulation time *time*."""

    @abstractmethod
    def call_soon(
        self,
        callback: Callable[[], None],
        daemon: bool = False,
        host: str | None = None,
    ) -> Any:
        """Run *callback* at the current time, after already-queued events
        at this timestamp (FIFO)."""

    def cancel(self, timer: Any) -> None:
        """Cancel a timer returned by a scheduling call (sugar for
        ``timer.cancel()``; kept on the interface so callers holding only
        the backend can cancel)."""
        timer.cancel()

    # -- running -----------------------------------------------------------

    @abstractmethod
    def step(self) -> bool:
        """Process the single next event; False when nothing is queued."""

    @abstractmethod
    def run(
        self,
        until: float | None = None,
        max_events: int | None = None,
        stop_when: Callable[[], bool] | None = None,
    ) -> float:
        """Run the loop; returns the simulation time when it stopped."""

    # -- observation -------------------------------------------------------

    @property
    @abstractmethod
    def now(self) -> float:
        """Current simulation time in seconds."""

    @property
    @abstractmethod
    def pending(self) -> int:
        """Number of live (uncancelled, unfired) queued events."""


def create_simulator(seed: int = 0, backend: str = "serial") -> "SimBackend":
    """Build a simulator by backend name (the ``VCEConfig.backend`` seam).

    Args:
        seed: root seed for every random stream derived from the run.
        backend: one of :data:`BACKEND_NAMES`.
    """
    if backend == "serial":
        from repro.netsim.kernel import Simulator

        return Simulator(seed)
    if backend == "network":
        from repro.netexec.wallclock import WallClockSimulator

        return WallClockSimulator(seed)
    raise SimulationError(
        f"unknown simulation backend {backend!r} "
        f"(expected one of {', '.join(BACKEND_NAMES)})"
    )
