#!/usr/bin/env python3
"""Group-leader failure and oldest-survivor recovery (§5).

Boots a workstation group, crashes its leader while applications are being
submitted, and shows Isis-style error notification promoting the oldest
surviving daemon — after which scheduling continues and every application
completes.

Run:  python examples/fault_tolerant_scheduling.py
"""

from repro import VirtualComputingEnvironment, workstation_cluster
from repro.faults import FaultSchedule, leadership_transfer_times
from repro.machines import MachineClass
from repro.workloads import build_pipeline_graph


def main() -> None:
    vce = VirtualComputingEnvironment(workstation_cluster(6)).boot()
    cls = MachineClass.WORKSTATION
    original_leader = vce.directory.leader(cls).host
    view_before = vce.directory.members(cls)
    print(f"group leader: {original_leader}")
    print(f"membership (oldest first): {[m.host for m in view_before]}")

    # first application completes under the original leader
    r1 = vce.submit(build_pipeline_graph(stages=2, stage_work=5.0, name="before"))
    vce.run_to_completion(r1)
    print(f"\napp 'before': {r1.state.value} "
          f"(alloc latency {r1.allocation_latency:.2f}s)")

    # kill the leader's machine
    vce.chaos(FaultSchedule("leader-crash").crash(1.0, original_leader))
    vce.run(until=vce.sim.now + 30.0)  # failure detection + takeover

    new_leader = vce.directory.leader(cls).host
    print(f"\nleader {original_leader} crashed; "
          f"oldest survivor {new_leader} took over")
    assert new_leader == view_before[1].host, "takeover should go to rank 1"

    transfer = leadership_transfer_times(vce.sim.log, "vce.WORKSTATION")
    print(f"leadership transfer time: {transfer[0]:.1f}s "
          "(heartbeat timeout + view change)")

    # scheduling keeps working under the new leader
    r2 = vce.submit(build_pipeline_graph(stages=2, stage_work=5.0, name="after"))
    vce.run_to_completion(r2)
    print(f"\napp 'after': {r2.state.value} "
          f"(alloc latency {r2.allocation_latency:.2f}s) — "
          f"the crashed machine was never offered: "
          f"{original_leader not in set(r2.placement.assignments.values())}")

    views = [r for r in vce.sim.log.records(category="isis.view")
             if r.get("group") == "vce.WORKSTATION"]
    print("\nview history of the workstation group:")
    for record in views:
        print(f"  t={record.time:7.2f}  view#{record.get('view_id')}  "
              f"{len(record.get('members'))} members, "
              f"leader {record.get('coordinator').split('/')[0]}")


if __name__ == "__main__":
    main()
