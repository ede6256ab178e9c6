"""Fault injection and recovery invariants.

"Fault-tolerance of the group leader will be achieved through redundancy
and error recovery mechanisms." (§5) — the injector kills hosts (including
group leaders specifically), produces churn, and the invariant helpers
verify from the event log that recovery behaved as the paper promises:
oldest-survivor leadership, bounded detection latency, and application
completion despite daemon churn.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "injector": ("FaultInjector",),
    "invariants": ("leadership_transfer_times", "surviving_leader_is_oldest", "views_converged"),
    "schedule": ("SCHEDULES", "ChaosController", "FaultAction", "FaultSchedule", "build_schedule"),
})
