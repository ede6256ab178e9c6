"""Discrete-event network/host simulation kernel.

This is the substrate everything else runs on. The paper's prototype ran on
a workstation LAN; we replace the LAN with a deterministic simulator so that
scheduling, migration, and fault-tolerance experiments are exactly
reproducible (see DESIGN.md, substitution table).

Layering:

- :class:`SimBackend` — the backend seam: the event-loop contract, with
  :func:`create_simulator` selecting an implementation by name
  (``VCEConfig.backend``).
- :class:`Simulator` — the ``serial`` backend and the only virtual-time
  engine: a priority queue of timestamped callbacks, with cancellable
  timers.
- :class:`Host` — a simulated machine that owns named :class:`SimProcess`
  actors, can crash and recover.
- :class:`Network` — delivers messages between hosts under a configurable
  latency/bandwidth/jitter model, with partitions and probabilistic loss for
  fault experiments.
- :class:`SimProcess` — the actor base class: ``on_message`` / ``on_timer``
  handlers plus ``send`` and ``set_timer`` effects.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "backend": ("BACKEND_NAMES", "SimBackend", "create_simulator"),
    "kernel": ("Simulator", "Timer"),
    "network": ("Network", "LatencyModel", "Message"),
    "host": ("Host", "Address"),
    "process": ("SimProcess",),
})
