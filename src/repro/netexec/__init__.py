"""Real-network execution backend: the VCE off the simulator.

The netsim kernel runs the whole environment inside one process and one
event heap.  This package is the other half of ROADMAP item 3: the same
``scheduler.messages`` protocol, task graphs, trace contexts, failover
leases and chaos recipes, but with daemons and the execution program
running as *real* asyncio processes talking over TCP sockets on
localhost, paced by the wall clock instead of the tombstone heap.

Layout:

- :mod:`repro.netexec.codec` — length-prefixed, CRC-checked frames
  carrying restricted-pickle payloads (the scheduler message classes and
  the netexec control frames, nothing else).
- :mod:`repro.netexec.wallclock` — :class:`WallClockSimulator`, a
  :class:`~repro.netsim.backend.SimBackend` whose clock is real time
  scaled by a rate knob (reusing :class:`~repro.netsim.pacing.WallClockPacer`'s
  arithmetic), selected by ``VCEConfig(backend="network")``.
- :mod:`repro.netexec.transport` — the supervisor-side frame router and
  the daemon-side connection (connect-with-retry, reconnect).
- :mod:`repro.netexec.daemonhost` — the per-machine daemon process
  (``python -m repro.netexec.daemonhost``): bids on resource requests,
  runs task programs, reports results.
- :mod:`repro.netexec.supervisor` — :class:`NetworkVCE`: spawns the
  daemons, plays the execution-program/EXM role, enforces leases and
  exactly-once commits, maps chaos ``crash`` actions to real ``SIGKILL``.
- :mod:`repro.netexec.quickstart` — the 3-process localhost demo behind
  ``repro serve --backend network``; checks DONE-set and results-digest
  parity against the serial sim backend.

See docs/NETWORK.md for the determinism contract (what is and is not
digest-stable across the sim/network seam).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "supervisor": ("NetworkVCE",),
    "wallclock": ("WallClockSimulator",),
})
