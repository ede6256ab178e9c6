"""Machine modelling: architecture classes, machine specs, background load.

The VCE divides all participating machines into *classes* that are the
low-level counterparts of the problem-architecture classes used by the SDM
design stage ("a possible machine class might be SIMD which would contain
machines like the CM5 and the MasPar MP-1"). This package provides:

- :class:`MachineClass` — SIMD / MIMD / VECTOR / WORKSTATION.
- :class:`Machine` — one machine's capabilities: class, speed, memory,
  object-code format (used by the homogeneity check of address-space-dump
  migration), and a background-load model.
- :class:`MachineDatabase` — "the simple database, maintained by VCE
  software" that the compilation manager queries to pick candidate machines.
- load models — constant, trace-driven, and stochastic busy/idle processes
  that stand in for the locally-initiated work the paper's placement and
  load-balancing sections reason about.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "archclass": ("MachineClass",),
    "load": ("ConstantLoad", "LoadModel", "StochasticLoad", "TraceLoad"),
    "machine": ("Machine",),
    "database": ("MachineDatabase",),
})
