"""Load balancing and remote-execution policies (§4.3–4.4).

The paper contrasts two reactions when "resource requirements of locally
initiated processes increase" on a machine hosting remote VCE work:

- **suspend** (Clark's DAWGS, Ju, Krueger's Stealth): pause the remote
  tasks and resume them "when activity of locally initiated tasks
  diminishes". Cheap — no migration mechanism needed — but "if a virtual
  machine task is suspended ... initiation of other tasks dependent on the
  output of the suspended task could be delayed. This ripple effect could
  adversely affect system throughput."
- **migrate**: move the task to a less-loaded machine via one of the §4.4
  schemes, keeping the dependency graph flowing at the price of migration
  overhead.

:class:`LoadBalancer` polls machine loads and applies a pluggable
:class:`BalancingPolicy`; :class:`SuspendResumePolicy` and
:class:`MigrateOnLoadPolicy` implement the two philosophies (experiment E6
compares them), and :class:`NoActionPolicy` is the control.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "policies": ("BalancingPolicy", "MigrateOnLoadPolicy", "NoActionPolicy", "SuspendResumePolicy"),
    "balancer": ("LoadBalancer",),
})
