"""Fault injection and recovery invariants.

"Fault-tolerance of the group leader will be achieved through redundancy
and error recovery mechanisms." (§5) — a fault schedule, applied by the
chaos controller, kills hosts (a group leader among them), produces churn
and opens loss, latency and partition windows, and the invariant helpers
verify from the event log that recovery behaved as the paper promises:
oldest-survivor leadership, bounded detection latency, and application
completion despite daemon churn.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "invariants": ("leadership_transfer_times", "surviving_leader_is_oldest", "views_converged"),
    "schedule": ("SCHEDULES", "ChaosController", "FaultAction", "FaultSchedule", "build_schedule"),
})
