"""Soak test: a busy VCE under churn, migration, and owner activity.

One long deterministic run combining most subsystems, with invariant
checks over the complete event log. This is the failure-injection
regression net: if a protocol interaction breaks (lost completions,
double-finishes, migrations to dead hosts), it shows up here.
"""

import pytest

from repro.core import VCEConfig, VirtualComputingEnvironment, workstation_cluster
from repro.faults import FaultSchedule
from repro.loadbalance import MigrateOnLoadPolicy
from repro.machines import MachineClass
from repro.scheduler.execution_program import RunState
from repro.workloads import (
    build_monte_carlo_graph,
    build_pipeline_graph,
    build_sweep_graph,
)


def soak_run(seed=42):
    machines = workstation_cluster(
        10, stochastic_load=(45.0, 30.0, 0.9), seed=seed
    )
    vce = VirtualComputingEnvironment(machines, VCEConfig(seed=seed)).boot()
    vce.enable_load_balancing(
        MigrateOnLoadPolicy(vce.migration), busy_threshold=0.5, interval=1.0
    )
    # churn two machines (never the current leader)
    leader_host = vce.directory.leader(MachineClass.WORKSTATION).host
    churners = [n for n in ("ws8", "ws9") if n != leader_host][:2]
    vce.chaos(
        FaultSchedule("churn").churn(
            churners, vce.sim.rng.stream("faults"),
            mean_up=90.0, mean_down=25.0, until=500.0,
        )
    )

    runs = []
    for i in range(8):
        if i % 3 == 0:
            graph = build_pipeline_graph(stages=3, stage_work=20.0, name=f"pipe{i}")
        elif i % 3 == 1:
            graph = build_sweep_graph(points=3, work_per_point=30.0, name=f"sweep{i}")
        else:
            graph = build_monte_carlo_graph(
                workers=3, samples_per_worker=9_000, batches=10,
                work_per_batch=4.0, seed=i,
            )
            graph.name = f"mc{i}"
        runs.append(vce.submit(graph, queue_if_insufficient=True))
        vce.run(until=vce.sim.now + 10.0)
    vce.run(until=vce.sim.now + 1_500.0)
    return vce, runs


@pytest.fixture(scope="module")
def soak():
    return soak_run()


class TestSoak:
    def test_every_run_reaches_a_terminal_state(self, soak):
        vce, runs = soak
        for i, run in enumerate(runs):
            assert run.state in (RunState.DONE, RunState.FAILED), (
                f"run {i} stuck in {run.state}: {run.error}"
            )

    def test_most_runs_complete(self, soak):
        vce, runs = soak
        done = sum(1 for r in runs if r.state is RunState.DONE)
        assert done >= 5, [r.error for r in runs if r.state is not RunState.DONE]

    def test_churn_and_migration_actually_happened(self, soak):
        vce, runs = soak
        assert vce.chaos_controller.report()["crash"] >= 2
        assert len(vce.metrics().migrations()) >= 1

    def test_no_instance_finishes_twice(self, soak):
        vce, runs = soak
        seen = {}
        for record in vce.sim.log.records(category="app.done"):
            assert record.source not in seen, f"app {record.source} done twice"
            seen[record.source] = record.time

    def test_no_task_started_on_downed_host(self, soak):
        vce, runs = soak
        # build up/down intervals per host from the fault log
        down_at = {}
        intervals = {name: [] for name in vce.network.hosts}
        for record in vce.sim.log:
            if record.category in ("fault.crash", "host.crash"):
                down_at[record.source] = record.time
            elif record.category in ("fault.recover", "host.recover"):
                if record.source in down_at:
                    intervals[record.source].append(
                        (down_at.pop(record.source), record.time)
                    )
        horizon = vce.sim.now
        for host, start in down_at.items():
            intervals[host].append((start, horizon))
        for record in vce.sim.log.records(category="task.start"):
            host = record.get("host")
            for lo, hi in intervals.get(host, []):
                assert not (lo < record.time < hi), (
                    f"task started on {host} at {record.time} while down ({lo},{hi})"
                )

    def test_makespans_are_sane(self, soak):
        vce, runs = soak
        for run in runs:
            if run.state is RunState.DONE:
                assert 0 < run.app.makespan < 1_500.0

    def test_deterministic_repeat(self):
        """The entire soak — churn, owner activity, migrations, queueing —
        replays identically under one seed."""

        def fingerprint(seed):
            vce, runs = soak_run(seed)
            return (
                [(r.state.value, r.completed_at) for r in runs],
                vce.chaos_controller.report()["crash"],
                len(vce.metrics().migrations()),
                vce.network.messages_sent,
            )

        assert fingerprint(7) == fingerprint(7)


def chaos_soak_run(seed=21):
    """A busy cluster under the lossy schedule plus daemon bounces, with
    the fault-tolerant execution layer on."""
    from repro.faults.schedule import FaultSchedule
    from repro.migration.failover import FailoverConfig

    machines = workstation_cluster(8)
    config = VCEConfig(
        seed=seed,
        reliable_transport=True,
        failover=FailoverConfig(),
    )
    vce = VirtualComputingEnvironment(machines, config).boot()
    vce.chaos("lossy", seed=seed)
    bounces = FaultSchedule("bounce-two")
    bounces.bounce(6.0, "ws3", down_for=5.0).bounce(20.0, "ws5", down_for=5.0)
    vce.chaos(bounces)

    runs = []
    for i in range(6):
        if i % 2 == 0:
            graph = build_pipeline_graph(stages=3, stage_work=12.0, name=f"pipe{i}")
        else:
            graph = build_sweep_graph(points=3, work_per_point=18.0, name=f"sweep{i}")
        runs.append(vce.submit(graph, queue_if_insufficient=True))
        vce.run(until=vce.sim.now + 8.0)
    vce.run(until=vce.sim.now + 1_000.0)
    return vce, runs


@pytest.fixture(scope="module")
def chaos_soak():
    return chaos_soak_run()


class TestChaosSoak:
    def test_every_run_completes_despite_faults(self, chaos_soak):
        vce, runs = chaos_soak
        for i, run in enumerate(runs):
            assert run.state is RunState.DONE, (
                f"run {i} ended {run.state}: {run.error}"
            )

    def test_faults_and_losses_happened(self, chaos_soak):
        vce, runs = chaos_soak
        report = vce.chaos_controller.report()
        assert report.get("crash", 0) == 2 and report.get("restart", 0) == 2
        # a 5% drop schedule over a busy cluster must cost retransmissions
        assert vce.network.retransmissions > 0

    def test_no_app_finishes_twice(self, chaos_soak):
        vce, runs = chaos_soak
        seen = set()
        for record in vce.sim.log.records(category="app.done"):
            assert record.source not in seen, f"app {record.source} done twice"
            seen.add(record.source)

    def test_chaos_soak_deterministic(self):
        def fingerprint(seed):
            vce, runs = chaos_soak_run(seed)
            return (
                [(r.state.value, r.completed_at) for r in runs],
                vce.network.retransmissions,
                vce.network.messages_sent,
                vce.chaos_controller.report(),
            )

        assert fingerprint(33) == fingerprint(33)


# ----------------------------------------- multi-tenant soak (repro soak)
#
# A small seeded multi-tenant soak run (~200 applications, ~2.4k drawn
# instances on 24 workstations, fanout-4 hierarchical bidding, quotas
# tight enough that admissions must wait) is driven to completion once
# per module; the classes below assert the pinned end-state against that
# shared run: determinism across repeats, exactly-once
# completion, and the quota/aging invariants actually engaging.

import dataclasses

from repro.soak import SoakConfig, run_soak

SMALL_SOAK = SoakConfig(
    tenants=6,
    apps=200,
    machines=24,
    fanout=4,
    seed=0,
    instances=(8, 16),
    work=(4.0, 8.0),
    mean_quota=80,  # tight: forces a visible admission backlog
    arrival_span=120.0,
    telemetry_interval=200.0,
    pulse=2.0,
    settle=20.0,
)


@pytest.fixture(scope="module")
def small_soak():
    return run_soak(SMALL_SOAK)


class TestTenantSoakEndState:
    def test_everything_admitted_completes(self, small_soak):
        _, driver, report = small_soak
        assert report.submitted == SMALL_SOAK.apps
        assert report.failed == 0
        assert report.completed == report.admitted == SMALL_SOAK.apps
        assert driver.finished

    def test_finished_applications_leave_no_channels(self, small_soak):
        vce, _, report = small_soak
        apps = vce.runtime.apps.values()
        assert len(apps) == report.completed and all(a.status.terminal for a in apps)
        assert sum(node.instances > 1 for a in apps for node in a.graph) > 0
        assert len(vce.runtime.channels) == 0

    def test_exactly_once_completion(self, small_soak):
        _, driver, report = small_soak
        assert driver._duplicate_finishes == 0
        assert len(driver._done_app_ids) == report.completed + report.failed

    def test_admission_control_engaged(self, small_soak):
        vce, driver, report = small_soak
        # tight quotas: some arrivals waited, all were eventually admitted
        assert report.held > 0
        assert report.max_admission_wait > 0.0
        assert not driver.pending
        waited = vce.sim.log.records(category="soak.admit_held")
        assert len(waited) == report.held

    def test_no_tenant_exceeds_quota_and_none_starves(self, small_soak):
        _, _, report = small_soak
        assert report.tenants  # snapshot present
        for name, t in report.tenants.items():
            assert t["peak_admitted"] <= t["quota"], name
            assert t["admitted"] == 0, name  # all capacity released at end
            assert t["apps_completed"] == t["apps_admitted"], name
            assert t["apps_failed"] == 0, name

    def test_hierarchy_engaged(self, small_soak):
        _, _, report = small_soak
        assert report.delegations > 0
        # per-round polling well under the flat broadcast's fan-out
        assert 0 < report.bid_fanout_per_round < SMALL_SOAK.machines
        assert 0.0 < report.sched_event_share < 1.0

    def test_live_instance_peak_recorded(self, small_soak):
        _, _, report = small_soak
        assert report.peak_live_instances > 0
        assert report.peak_admitted_instances >= report.peak_live_instances


    def test_run_stops_with_the_last_completion(self, small_soak):
        """run_soak used to advance in 500 s slices and so padded every
        run to the next slice boundary with idle heartbeats."""
        vce, driver, _ = small_soak
        last_done = max(app.completed_at for app in vce.runtime.apps.values())
        assert driver.finished
        assert vce.sim.now == last_done


class TestTenantSoakDeterminism:
    def test_repeat_run_is_byte_identical(self, small_soak):
        _, _, first = small_soak
        _, _, second = run_soak(SMALL_SOAK)
        assert second.digest == first.digest
        assert second.to_dict() == first.to_dict()

    def test_seed_changes_the_schedule(self, small_soak):
        _, _, base = small_soak
        _, _, other = run_soak(dataclasses.replace(SMALL_SOAK, seed=1))
        assert other.digest != base.digest
        # but the same invariants hold on any seed
        assert other.failed == 0
        assert other.completed == other.admitted == SMALL_SOAK.apps


class TestTenantSoakUnderChaos:
    def test_partition_merge_does_not_strand_queued_requests(self):
        """Regression: a request age-queued by the leader of a minority
        partition view must survive the group merge — the ex-leader hands
        its replicated queue mirror to the winning coordinator — instead
        of wedging the run until max_sim_time with one app never placed.
        At seed 0 this config partitions the group right as an allocation
        falls short and gets queued on the minority side."""
        cfg = SoakConfig(
            tenants=4,
            apps=30,
            machines=16,
            fanout=4,
            seed=0,
            instances=(8, 16),
            work=(4.0, 8.0),
            arrival_span=30.0,
            chaos="chaos-mix",
            max_sim_time=5_000.0,
        )
        _, driver, report = run_soak(cfg)
        assert driver.finished
        assert report.completed == report.admitted == cfg.apps
        assert report.makespan < cfg.max_sim_time

    def test_chaos_mix_still_completes_exactly_once(self):
        cfg = dataclasses.replace(
            SMALL_SOAK, apps=60, arrival_span=60.0, chaos="chaos-mix"
        )
        _, driver, report = run_soak(cfg)
        assert report.submitted == cfg.apps
        assert report.completed + report.failed == report.admitted == cfg.apps
        assert report.completed == cfg.apps  # failover keeps every app alive
        assert driver._duplicate_finishes == 0
        assert len(driver._done_app_ids) == cfg.apps
        for name, t in report.tenants.items():
            assert t["peak_admitted"] <= t["quota"], name
