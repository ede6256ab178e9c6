"""Tests for load-balancing policies, the balancer, and fault injection."""


from repro.faults import (
    ChaosController,
    FaultSchedule,
    leadership_transfer_times,
    views_converged,
)
from repro.loadbalance import (
    LoadBalancer,
    MigrateOnLoadPolicy,
    NoActionPolicy,
    SuspendResumePolicy,
)
from repro.machines import ConstantLoad, TraceLoad
from repro.migration import MigrationContext, MigrationSelector
from repro.runtime import AppStatus, InstanceState
from repro.sdm import ProblemSpecification
from repro.taskgraph import ProblemClass
from repro.vmpi import Checkpoint, Compute

from tests.conftest import make_cluster, place_all_on


def steppy_program(steps=20, step_work=1.0):
    def program(ctx):
        step = ctx.restored_state or 0
        while step < steps:
            yield Compute(step_work)
            step += 1
            yield Checkpoint(step, size=500)
        return step

    return program


def busy_window_loads(n, busy_host=0, start=3.0, stop=10.0):
    """Host `busy_host` becomes busy in [start, stop); others stay idle."""
    loads = []
    for i in range(n):
        if i == busy_host:
            loads.append(TraceLoad([(start, 0.95), (stop, 0.0)]))
        else:
            loads.append(ConstantLoad(0.0))
    return loads


def one_task(name="app", steps=20):
    graph = ProblemSpecification(name).task("t", work=steps).build()
    node = graph.task("t")
    node.problem_class = ProblemClass.ASYNCHRONOUS
    node.language = "py"
    node.program = steppy_program(steps)
    return graph


class TestSuspendResumePolicy:
    def test_suspends_during_local_burst_and_resumes(self):
        cluster = make_cluster(2, loads=busy_window_loads(2))
        graph = one_task()
        app = cluster.manager.submit(graph, place_all_on(graph, "ws0"))
        balancer = LoadBalancer(
            cluster.manager, cluster.db, SuspendResumePolicy(), interval=0.5
        )
        balancer.start()
        cluster.run(until=8.0)
        inst = app.record("t", 0).instance
        assert inst.state is InstanceState.SUSPENDED
        cluster.run(until=40.0)
        assert app.status is AppStatus.DONE
        # 20 units of work + ~7s suspended window
        assert app.makespan > 25.0
        assert cluster.sim.log.records(category="lb.suspend")
        assert cluster.sim.log.records(category="lb.resume")

    def test_noaction_lets_task_crawl(self):
        cluster = make_cluster(2, loads=busy_window_loads(2))
        graph = one_task()
        app = cluster.manager.submit(graph, place_all_on(graph, "ws0"))
        balancer = LoadBalancer(
            cluster.manager, cluster.db, NoActionPolicy(), interval=0.5
        )
        balancer.start()
        cluster.run(until=60.0)
        assert app.status is AppStatus.DONE
        # work continues at 5% speed during the burst: slower than idle
        assert app.makespan > 20.0


class TestMigrateOnLoadPolicy:
    def test_migrates_to_idle_machine(self):
        cluster = make_cluster(3, loads=busy_window_loads(3, stop=100.0))
        graph = one_task()
        app = cluster.manager.submit(graph, place_all_on(graph, "ws0"))
        selector = MigrationSelector(MigrationContext(cluster.manager, cluster.net))
        balancer = LoadBalancer(
            cluster.manager, cluster.db, MigrateOnLoadPolicy(selector), interval=0.5
        )
        balancer.start()
        cluster.run(until=80.0)
        assert app.status is AppStatus.DONE
        record = app.record("t", 0)
        assert record.host_name in ("ws1", "ws2")
        migrations = cluster.sim.log.records(category="lb.migrate")
        assert migrations and migrations[0].get("scheme") in ("dump", "checkpoint")
        # busy window never ends on ws0, yet the app finished promptly
        assert app.makespan < 30.0

    def test_migration_beats_suspension_on_makespan(self):
        def run(policy_factory):
            cluster = make_cluster(3, loads=busy_window_loads(3, stop=100.0))
            graph = one_task()
            app = cluster.manager.submit(graph, place_all_on(graph, "ws0"))
            balancer = LoadBalancer(
                cluster.manager, cluster.db, policy_factory(cluster), interval=0.5
            )
            balancer.start()
            cluster.run(until=400.0)
            return app

        migrate_app = run(
            lambda c: MigrateOnLoadPolicy(
                MigrationSelector(MigrationContext(c.manager, c.net))
            )
        )
        suspend_app = run(lambda c: SuspendResumePolicy())
        assert migrate_app.status is AppStatus.DONE
        assert suspend_app.status is AppStatus.DONE
        # suspension stalls until the ~97s-long local burst ends; migration
        # moves the work away and finishes several times sooner
        assert migrate_app.makespan < 60.0
        assert suspend_app.makespan > 2 * migrate_app.makespan

    def test_no_target_emits_event(self):
        # all machines busy: nowhere to go
        cluster = make_cluster(1, loads=[TraceLoad([(3.0, 0.95)])])
        graph = one_task()
        app = cluster.manager.submit(graph, place_all_on(graph, "ws0"))
        selector = MigrationSelector(MigrationContext(cluster.manager, cluster.net))
        balancer = LoadBalancer(
            cluster.manager, cluster.db, MigrateOnLoadPolicy(selector), interval=0.5
        )
        balancer.start()
        cluster.run(until=10.0)
        assert cluster.sim.log.records(category="lb.no_target")


class TestBalancerMechanics:
    def test_least_loaded_machine_excludes_and_skips_down(self):
        cluster = make_cluster(
            3, loads=[ConstantLoad(0.5), ConstantLoad(0.1), ConstantLoad(0.0)]
        )
        balancer = LoadBalancer(cluster.manager, cluster.db, NoActionPolicy())
        assert balancer.least_loaded_machine() == "ws2"
        assert balancer.least_loaded_machine(exclude={"ws2"}) == "ws1"
        cluster.hosts["ws2"].crash()
        assert balancer.least_loaded_machine() == "ws1"

    def test_transitions_counted_once_per_edge(self):
        cluster = make_cluster(1, loads=[TraceLoad([(2.0, 0.9), (5.0, 0.0)])])
        graph = one_task(steps=30)
        cluster.manager.submit(graph, place_all_on(graph, "ws0"))
        balancer = LoadBalancer(
            cluster.manager, cluster.db, SuspendResumePolicy(), interval=0.5
        )
        balancer.start()
        cluster.run(until=10.0)
        assert balancer.transitions == 2  # busy once, idle once

    def test_stop_halts_polling(self):
        cluster = make_cluster(1)
        balancer = LoadBalancer(cluster.manager, cluster.db, NoActionPolicy(), interval=0.5)
        balancer.start()
        cluster.run(until=2.0)
        balancer.stop()
        pending_before = cluster.sim.pending
        cluster.run(until=10.0)
        assert cluster.sim.pending <= pending_before


class TestFaultSchedules:
    def test_crash_and_recover(self):
        cluster = make_cluster(2)
        controller = ChaosController(cluster.sim, cluster.net).apply(
            FaultSchedule("bounce").bounce(2.0, "ws0", down_for=3.0)
        )
        cluster.run(until=3.0)
        assert not cluster.hosts["ws0"].up
        cluster.run(until=6.0)
        assert cluster.hosts["ws0"].up
        assert controller.report()["crash"] == 1

    def test_a_crashed_leader_is_replaced(self):
        from repro.machines import MachineClass
        from tests.helpers_sched import make_vce, workstation_farm

        vce = make_vce(workstation_farm(3))
        leader_host = vce.directory.leader(MachineClass.WORKSTATION).host
        ChaosController(vce.sim, vce.net).apply(
            FaultSchedule("leader-crash").crash(1.0, leader_host)
        )
        vce.run(until=vce.sim.now + 30.0)
        assert not vce.net.host(leader_host).up
        # a new leader emerged
        assert vce.directory.leader(MachineClass.WORKSTATION).host != leader_host
        times = leadership_transfer_times(vce.sim.log, "vce.WORKSTATION")
        assert times and all(t < 20.0 for t in times)
        live = [d for d in vce.daemons.values() if d.alive]
        assert views_converged([d.membership for d in live])

    def test_churn_is_deterministic(self):
        def crash_times(seed):
            cluster = make_cluster(4, seed=seed)
            ChaosController(cluster.sim, cluster.net).apply(
                FaultSchedule("churn").churn(
                    [f"ws{i}" for i in range(4)], cluster.sim.rng.stream("faults"),
                    mean_up=10, mean_down=5, until=100,
                )
            )
            cluster.run(until=100.0)
            return [r.time for r in cluster.sim.log.records(category="fault.crash")]

        assert crash_times(3) == crash_times(3)
        assert crash_times(3) != crash_times(4)

    def test_a_churned_workstation_bids_after_restart(self):
        """A recovery reboots the machine's scheduler daemon, so the
        machine bids again: a job that needs every workstation runs."""
        from repro.core import VCEConfig, VirtualComputingEnvironment, workstation_cluster
        from repro.machines import MachineClass
        from repro.scheduler.execution_program import RunState
        from repro.workloads import build_sweep_graph

        vce = VirtualComputingEnvironment(workstation_cluster(4), VCEConfig(seed=3)).boot()
        assert vce.directory.leader(MachineClass.WORKSTATION).host != "ws3"
        vce.chaos(FaultSchedule("bounce").bounce(1.0, "ws3", down_for=4.0))
        vce.run(until=vce.sim.now + 60.0)
        assert vce.daemons["ws3"].alive
        run = vce.submit(build_sweep_graph(points=4, work_per_point=10.0, name="wide"))
        vce.run_to_completion(run, timeout=1_000.0)
        assert run.state is RunState.DONE, run.error
        assert sorted(r.host_name for r in run.app.records.values()) == [
            "ws0", "ws1", "ws2", "ws3",
        ]
