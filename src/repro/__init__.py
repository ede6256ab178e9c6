"""repro — a reproduction of "The Virtual Computing Environment".

Rousselle, Tymann, Hariri, and Fox; Northeast Parallel Architectures
Center, Syracuse University; HPDC 1994.

The package implements the complete VCE stack over a deterministic
discrete-event cluster simulator: task graphs and the three SDM layers, an
Isis-style virtual-synchrony toolkit, channels/ports with interposition and
redirection, a vMPI message-passing library, IDL-generated object proxies,
the compilation manager with anticipatory compilation, the Figure-3 bidding
scheduler with group leaders and priority aging, the runtime manager, four
process-migration schemes, load-balancing policies, fault injection, the
application description script language, and the workloads and metrics used
by the paper-claim tests.

Start with :class:`repro.core.VirtualComputingEnvironment`.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "core": (
        "VCEConfig",
        "VirtualComputingEnvironment",
        "heterogeneous_cluster",
        "multi_site_cluster",
        "workstation_cluster",
    ),
})
__all__.append("__version__")
