#!/usr/bin/env python3
"""Load balancing by migration: workstation owners come back, work moves.

A Monte Carlo farm (the §4.4 "easily migrated" workload) runs across
workstations whose owners come and go (stochastic busy/idle load). The
load balancer watches background load and migrates VCE work off machines
whose owners return, using the cheapest eligible §4.4 migration scheme
(dump between homogeneous workstations, checkpoint otherwise).

Run:  python examples/monte_carlo_migration.py
"""

from repro import VCEConfig, VirtualComputingEnvironment, workstation_cluster
from repro.loadbalance import MigrateOnLoadPolicy
from repro.workloads import build_monte_carlo_graph


def main() -> None:
    machines = workstation_cluster(
        8,
        # owners: idle ~60s, busy ~40s at 95% CPU
        stochastic_load=(60.0, 40.0, 0.95),
        seed=7,
    )
    vce = VirtualComputingEnvironment(machines, VCEConfig(seed=7)).boot()
    vce.enable_load_balancing(
        MigrateOnLoadPolicy(vce.migration), busy_threshold=0.5, interval=1.0
    )

    graph = build_monte_carlo_graph(
        workers=4, samples_per_worker=200_000, batches=20, work_per_batch=4.0
    )
    run = vce.submit(graph)
    vce.run_to_completion(run, timeout=2_000.0)

    print(f"run state: {run.state.value}")
    print(f"pi estimate: {run.app.results('worker')[0]:.4f}")
    print(f"makespan: {run.app.makespan:.1f}s\n")

    metrics = vce.metrics()
    migrations = metrics.migrations()
    print(f"{len(migrations)} migrations performed:")
    for stat in migrations:
        print(f"  {stat.scheme:<11} {stat.src} -> {stat.dst}  "
              f"latency {stat.latency:.2f}s")

    print("\nplacement history per worker (machine after each move):")
    for rank in range(4):
        record = run.app.record("worker", rank)
        print(f"  worker[{rank}]: {' -> '.join(record.placements)}")

    spans = metrics.suspension_spans()
    total_frozen = sum(spans)
    print(f"\n(workers were frozen only during dump transfers: "
          f"{total_frozen:.1f}s total across {len(spans)} freezes — "
          "contrast with the suspend-until-idle policy in "
          "tests/test_paper_claims.py::test_e6_ripple_effect)")


if __name__ == "__main__":
    main()
