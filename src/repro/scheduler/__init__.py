"""The runtime bidding scheduler (Figure 3, §5).

"After identifying the groups that contain the types of machines required
to run the application, the execution program sends a request message to
each group leader. ... Once the request is received by the group leader, it
is sent to each machine in the group. Each machine, based on current load
and availability, sends a 'bid' back to the group leader ... The group
leader collects the bids, determines which are the 'best' processors to
allocate to the application, and then sends a reply back to the execution
program. If there are insufficient resources within a group a message to
that effect is returned to the execution program."

Components:

- :class:`SchedulerDaemon` — "a scheduling/dispatching daemon that runs in
  each workstation authorized to host remote executions"; it owns a
  :class:`~repro.isis.Membership` in its machine-class group. The oldest
  member acts as group leader, fielding requests, broadcasting
  state-disclosure, sorting bids by load, and replying (or queueing
  unsatisfiable requests with priority aging, §4.3).
- :class:`ExecutionProgram` — "an execution program that executes
  applications on behalf of a local user": walks an application
  description, requests resources per group, maps allocated machines to
  task instances with a placement policy, and submits to the runtime
  manager.
- :mod:`repro.scheduler.policies` — bid-to-task assignment policies,
  including the utilization-first rule of the §4.3 machine-A example.
- :class:`GroupDirectory` — class → current leader lookup, maintained by
  the daemons' view-change callbacks.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "messages": (
        "AllocationError_",
        "AllocationReply",
        "Allocation",
        "CellBids",
        "DelegateRequest",
        "DiscloseProbe",
        "ModuleNeed",
        "ProbeReply",
        "ResourceRequest",
        "MachineBid",
        "SetPriority",
        "TerminateNotice",
    ),
    "directory": ("GroupDirectory",),
    "daemon": ("DaemonConfig", "SchedulerDaemon"),
    "hierarchy": ("CellMap", "build_cells"),
    "policies": (
        "PlacementPolicy",
        "greedy_assignment",
        "load_sorted_assignment",
        "random_assignment",
        "round_robin_assignment",
        "site_packed_assignment",
        "utilization_first_assignment",
    ),
    "queue": ("AgingQueue", "QueuedRequest"),
    "execution_program": ("AppRun", "ExecutionProgram"),
})
