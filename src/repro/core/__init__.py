"""The VCE facade — the paper's primary contribution assembled.

:class:`VirtualComputingEnvironment` wires every subsystem together the way
Figure 1 stacks them: the SDM produces an annotated task graph; the EXM's
compilation manager prepares binaries (anticipatorily if asked); scheduler
daemons form Isis groups per machine class; an execution program bids for
resources, places instances, and the runtime manager executes them with
migration, load balancing, and fault tolerance available as policies.

Typical use::

    from repro.core import VCEConfig, VirtualComputingEnvironment, workstation_cluster

    vce = VirtualComputingEnvironment(workstation_cluster(8)).boot()
    run = vce.submit(my_graph)
    vce.run_to_completion(run)
    print(run.app.results("mytask"))
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "config": ("VCEConfig",),
    "cluster": ("heterogeneous_cluster", "multi_site_cluster", "workstation_cluster"),
    "environment": ("VirtualComputingEnvironment", "materialize_description"),
    "spec": ("load_cluster_file", "machines_from_spec"),
    "tenancy": ("QuotaExceededError", "TenantRegistry", "TenantSpec", "TenantState"),
})
