"""Real-network execution backend: the VCE off the simulator.

The netsim kernel runs the whole environment inside one process and one
event heap.  This package is the other half of ROADMAP item 3: the same
``scheduler.messages`` protocol, task graphs, trace contexts and
exactly-once failover, but with daemons and the execution program
running as *real* asyncio processes talking over TCP sockets on
localhost.  It has no event engine of its own: asyncio and the sockets
drive it, and the supervisor keeps a wall clock to stamp its records.

Layout:

- :mod:`repro.netexec.codec` — length-prefixed, CRC-checked frames
  carrying restricted-pickle payloads (the scheduler message classes and
  the netexec control frames, nothing else).
- :mod:`repro.netexec.transport` — the supervisor-side frame router and
  the daemon-side connection (connect-with-retry, reconnect).
- :mod:`repro.netexec.daemonhost` — the per-machine daemon process
  (``python -m repro.netexec.daemonhost``): bids on resource requests,
  runs task programs, reports results.
- :mod:`repro.netexec.supervisor` — :class:`NetworkVCE`: spawns the
  daemons, plays the execution-program/EXM role, strands a lost
  daemon's allocations on its connection's EOF, re-dispatches them and
  enforces exactly-once commits.
- :mod:`repro.netexec.quickstart` — the 3-process localhost demo behind
  ``repro serve --backend network``; checks DONE-set and results-digest
  parity against the serial simulator.

See docs/NETWORK.md for the determinism contract (what is and is not
digest-stable between the simulator and the network backend).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "supervisor": ("NetworkVCE",),
})
