"""Chaos soak: workloads under seeded fault schedules.

The acceptance bar for the fault-tolerant execution layer: with a daemon
crash-restart, 5% message drop, and one timed network partition (the
``chaos-mix`` recipe, fixed seed), every workload task completes exactly
once, results match the fault-free run, the makespan degrades gracefully,
and the whole chaotic run replays byte-identically.
"""

import pytest

from repro.core import (
    VCEConfig,
    VirtualComputingEnvironment,
    heterogeneous_cluster,
    workstation_cluster,
)
from repro.faults.schedule import SCHEDULES, FaultSchedule, build_schedule
from repro.migration.failover import FailoverConfig
from repro.runtime import AppStatus
from repro.runtime.instance import InstanceState
from repro.runtime.manager import Placement
from repro.scheduler.execution_program import RunState
from repro.sdm import ProblemSpecification
from repro.taskgraph import ProblemClass
from repro.trace.replay import event_log_digest
from repro.util.errors import SimulationError
from repro.vmpi import Compute
from repro.workloads import WEATHER_SCRIPT, build_pipeline_graph, weather_programs

# seed 3 makes chaos-mix crash ws0 (~t+3.2s), which hosts both a weather
# collector and the pipeline's first stage — recovery provably exercised
SEED = 3


def chaos_vce(seed=SEED, schedule="chaos-mix", **config_kw):
    config = VCEConfig(
        seed=seed,
        failover=FailoverConfig(),
        **config_kw,
    )
    vce = VirtualComputingEnvironment(heterogeneous_cluster(), config).boot()
    if schedule is not None:
        vce.chaos(schedule, seed=seed)
    return vce


def chaos_run(seed=SEED, schedule="chaos-mix"):
    """Weather + pipeline under *schedule*; returns (vce, runs)."""
    vce = chaos_vce(seed, schedule)
    runs = [
        vce.run_script(WEATHER_SCRIPT, weather_programs(), name="weather"),
        vce.submit(build_pipeline_graph(stages=4, stage_work=15.0, name="pipe")),
    ]
    for run in runs:
        vce.run_to_completion(run, timeout=2_000.0)
    vce.run(until=vce.sim.now + 30.0)  # let trailing fault windows close
    return vce, runs


@pytest.fixture(scope="module")
def chaotic():
    return chaos_run()


@pytest.fixture(scope="module")
def calm():
    """The same workloads with no faults injected (still fault-tolerant
    config, so the only delta is the schedule)."""
    return chaos_run(schedule=None)


class TestChaosSoak:
    def test_faults_actually_injected(self, chaotic):
        vce, _ = chaotic
        report = vce.chaos_controller.report()
        assert report.get("crash", 0) >= 1, report
        assert report.get("restart", 0) >= 1, report
        assert report.get("drop", 0) >= 1, report
        assert report.get("partition", 0) >= 1, report

    def test_all_runs_complete(self, chaotic):
        vce, runs = chaotic
        for run in runs:
            assert run.state is RunState.DONE, run.error

    def test_every_task_completes_exactly_once(self, chaotic):
        vce, runs = chaotic
        for run in runs:
            app = run.app
            done_counts = {}
            for record in vce.sim.log.records(category="task.done"):
                if record.get("app") != app.id:
                    continue
                key = (record.get("task"), record.get("rank"))
                done_counts[key] = done_counts.get(key, 0) + 1
            expected = {
                (node.name, rank)
                for node in app.graph
                for rank in range(node.instances)
            }
            assert set(done_counts) == expected
            multi = {k: n for k, n in done_counts.items() if n != 1}
            assert not multi, f"tasks not exactly-once: {multi}"

    def test_results_match_fault_free_run(self, chaotic, calm):
        chaotic_vce, chaotic_runs = chaotic
        calm_vce, calm_runs = calm
        for noisy, quiet in zip(chaotic_runs, calm_runs):
            assert quiet.state is RunState.DONE
            for node in quiet.app.graph:
                assert noisy.app.results(node.name) == quiet.app.results(node.name)

    def test_makespan_degrades_gracefully(self, chaotic, calm):
        _, chaotic_runs = chaotic
        _, calm_runs = calm
        for noisy, quiet in zip(chaotic_runs, calm_runs):
            assert noisy.app.makespan < 3 * quiet.app.makespan, (
                noisy.app.makespan,
                quiet.app.makespan,
            )

    def test_recovery_surfaced_in_telemetry(self, chaotic):
        vce, _ = chaotic
        registry = vce.telemetry.registry
        faults = registry.get("faults_injected_total")
        assert faults is not None
        assert sum(c.value for _, c in faults.samples()) >= 4
        recovery = registry.get("recovery_actions_total")
        assert recovery is not None
        by_action = {v[0]: c.value for v, c in recovery.samples()}
        assert by_action.get("strand", 0) >= 1, by_action
        assert by_action.get("redispatch", 0) >= 1, by_action
        # the injected/recovered counters appear in the top frame
        frame = vce.telemetry.render()
        assert "faults=" in frame and "recoveries=" in frame

    def test_recovery_events_in_log(self, chaotic):
        vce, _ = chaotic
        categories = {r.category for r in vce.sim.log}
        assert "fault.crash" in categories
        assert "fault.daemon_restart" in categories
        assert "recovery.strand" in categories
        assert "recovery.redispatch" in categories

    def test_byte_identical_replay(self):
        """Same seed + same fault schedule => byte-identical event log."""

        def fingerprint():
            vce, _ = chaos_run()
            return event_log_digest(vce.sim.log)

        assert fingerprint() == fingerprint()


class TestScheduleRecipes:
    def test_all_recipes_build(self):
        hosts = ["ws0", "ws1", "ws2", "mimd0"]
        for name in SCHEDULES:
            schedule = build_schedule(name, hosts, seed=5)
            assert len(schedule) >= 1
            assert schedule.name == name

    def test_build_is_deterministic(self):
        hosts = ["ws0", "ws1", "ws2"]
        a = build_schedule("chaos-mix", hosts, seed=9)
        b = build_schedule("chaos-mix", hosts, seed=9)
        assert a.actions == b.actions

    def test_unknown_schedule_rejected(self):
        with pytest.raises(SimulationError, match="unknown fault schedule"):
            build_schedule("nope", ["ws0"])
        with pytest.raises(SimulationError, match="at least one"):
            build_schedule("lossy", [])

    def test_actions_validate(self):
        from repro.faults.schedule import FaultAction

        with pytest.raises(SimulationError, match="unknown fault kind"):
            FaultAction(1.0, "meteor")
        with pytest.raises(SimulationError, match=">= 0"):
            FaultAction(-1.0, "crash")

    def test_window_restores_previous_setting(self):
        vce = chaos_vce(schedule=None)
        schedule = FaultSchedule("windows").drop_window(1.0, 2.0, 0.25)
        schedule.latency_spike(1.0, 2.0, 4.0)
        vce.chaos(schedule)
        vce.run(until=vce.sim.now + 2.0)
        assert vce.network._drop_rate == 0.25
        assert vce.network.latency_factor == 4.0
        vce.run(until=vce.sim.now + 3.0)
        assert vce.network._drop_rate == 0.0
        assert vce.network.latency_factor == 1.0


class TestDaemonRestart:
    def test_restarted_daemon_rejoins_group(self):
        vce = chaos_vce(schedule=None)
        victim = "ws1"
        schedule = FaultSchedule("bounce").bounce(2.0, victim, down_for=4.0)
        vce.chaos(schedule)
        vce.run(until=vce.sim.now + 40.0)
        daemon = vce.daemons[victim]
        assert daemon.alive
        assert daemon.membership.joined
        # the group's directory converges back to including the victim
        from repro.machines import MachineClass

        members = vce.directory.members(MachineClass.WORKSTATION)
        assert any(m.host == victim for m in members)


class TestStaleIncarnation:
    """An incarnation dispatched to a host that is already down never
    starts; once failover re-dispatches its record it must leave that
    host's process table, or the host's next crash fails it again."""

    def _job(self, work=30.0, name="job-app"):
        graph = ProblemSpecification(name).task("job", work=work).build()
        node = graph.task("job")
        node.problem_class = ProblemClass.ASYNCHRONOUS
        node.language = "py"

        def program(ctx):
            yield Compute(work)
            return "ok"

        node.program = program
        return graph

    def test_redispatch_releases_the_never_started_incarnation(self, monkeypatch):
        vce = VirtualComputingEnvironment(
            workstation_cluster(1), VCEConfig(seed=1, failover=FailoverConfig())
        ).boot()
        runtime, host = vce.runtime, vce.network.host("ws0")
        dispatch = runtime.dispatch_instance

        def dispatch_to_down_host(app, record, host_name, restored_state=None):
            # the first dispatch lands just after its host went down
            monkeypatch.setattr(runtime, "dispatch_instance", dispatch)
            host.crash()
            vce.sim.schedule(1.0, host.recover)
            return dispatch(app, record, host_name, restored_state)

        monkeypatch.setattr(runtime, "dispatch_instance", dispatch_to_down_host)
        run = vce.run_to_completion(vce.submit(self._job()), timeout=1_000.0)
        assert run.state is RunState.DONE
        # a one-workstation group has no survivor to report ws0 lost, so
        # the backstop re-dispatches
        (redispatch,) = vce.sim.log.records(category="recovery.redispatch")
        assert redispatch.get("via") == "lease"
        assert [p.name for p in host.processes()] == ["vced"]
        host.crash()
        assert vce.sim.log.count("task.host_crashed") == 0


class TestDispatchToDownHost:
    """Nothing starts on a host that is down: an instance dispatched there
    fails at once, as a crash of that host would have failed it."""

    def test_without_failover_the_application_fails(self, monkeypatch):
        vce = VirtualComputingEnvironment(
            workstation_cluster(2), VCEConfig(seed=1)
        ).boot()
        runtime = vce.runtime
        dispatch = runtime.dispatch_instance

        def dispatch_to_down_host(app, record, host_name, restored_state=None):
            monkeypatch.setattr(runtime, "dispatch_instance", dispatch)
            vce.network.host(host_name).crash()
            return dispatch(app, record, host_name, restored_state)

        monkeypatch.setattr(runtime, "dispatch_instance", dispatch_to_down_host)
        run = vce.run_to_completion(
            vce.submit(TestStaleIncarnation()._job()), timeout=200.0
        )
        assert run.app.status is AppStatus.FAILED
        assert run.state is RunState.FAILED
        (record,) = run.app.records.values()
        assert record.state is InstanceState.FAILED
        assert not record.instance.alive and record.instance.started_at is None
        assert vce.sim.log.count("runtime.host_down") == 1
        assert all(vce.runtime.instances_on(name) == [] for name in vce.network.hosts)


class TestRedispatchedLoad:
    """A daemon bids what its machine's process table holds, so an instance
    that failover re-dispatches counts in its new host's bid although no
    message announced it."""

    def test_the_host_of_a_redispatch_bids_its_instance(self):
        vce = VirtualComputingEnvironment(
            workstation_cluster(3), VCEConfig(seed=1, failover=FailoverConfig())
        ).boot()
        # a long instance pinned on the front end, so that recovery, which
        # picks the host with the fewest live instances, avoids it
        pinned = TestStaleIncarnation()._job(work=500.0, name="pinned")
        placement = Placement()
        placement.assign("job", 0, "user")
        vce.runtime.submit(pinned, placement)
        run = vce.submit(TestStaleIncarnation()._job(work=60.0))
        vce.sim.run(stop_when=lambda: vce.sim.log.count("task.start") == 2)
        (record,) = run.app.records.values()
        crashed = record.host_name
        vce.network.host(crashed).crash()
        vce.sim.run(stop_when=lambda: vce.sim.log.count("recovery.redispatch") == 1)
        (redispatch,) = vce.sim.log.records(category="recovery.redispatch")
        target = redispatch.get("dst")
        assert target not in ("user", crashed)
        vce.run(until=vce.sim.now + 1.0)
        daemon = vce.daemons[target]
        background = daemon.machine.load_at(vce.sim.now)
        assert daemon.make_bid().load == background + vce.config.daemon.per_instance_load
        vce.run_to_completion(run, timeout=1_000.0)
        assert run.state is RunState.DONE
        assert daemon.make_bid().load == daemon.machine.load_at(vce.sim.now)


class TestHostLostTakeover:
    """A group coordinator that sees a member's host leave its view reports
    it through ``GroupDirectory.host_lost_hooks``; failover subscribes once
    and re-dispatches what was stranded there at once
    (``via="daemon-takeover"``).  The subscription is the directory's, not a
    daemon's, so it holds across a daemon restart whichever came first;
    here the coordinator that reports the loss is itself a restarted
    daemon."""

    # the backstop re-dispatch comes this long after a strand: any
    # re-dispatch sooner is the coordinator's report
    LEASE = 60.0

    def _bounce_then_lose_the_worker(self, failover_first):
        """Two workstations.  The founder's daemon (ws0) is bounced, so ws1
        leads and the new ws0 daemon joins under it.  The job is placed on
        ws1 (ws0 is drained), and ws1 crashes while it runs: the restarted
        ws0 daemon takes over the group and reports ws1 lost."""
        from repro.machines import MachineClass

        vce = VirtualComputingEnvironment(workstation_cluster(2), VCEConfig(seed=1)).boot()
        config = FailoverConfig(lease=self.LEASE)
        if failover_first:
            vce.enable_failover(config)
        vce.restart_daemon("ws0")
        vce.run(until=vce.sim.now + 20.0)
        if not failover_first:
            vce.enable_failover(config)
        assert vce.directory.leader(MachineClass.WORKSTATION).host == "ws1"
        vce.drain_host("ws0")
        run = vce.submit(TestStaleIncarnation()._job())
        vce.sim.run(stop_when=lambda: vce.sim.log.count("task.start") == 1)
        (record,) = run.app.records.values()
        assert record.host_name == "ws1"
        crashed_at = vce.sim.now
        vce.network.host("ws1").crash()
        vce.run_to_completion(run, timeout=1_000.0)
        return vce, run, crashed_at

    @pytest.mark.parametrize("failover_first", [True, False], ids=["before", "after"])
    def test_a_lost_host_is_taken_over_once(self, failover_first):
        vce, run, crashed_at = self._bounce_then_lose_the_worker(failover_first)
        assert run.state is RunState.DONE
        # the bounce was a loss too (ws1 evicted ws0's old incarnation)
        (lost,) = [
            r for r in vce.sim.log.records(category="sched.peer_lost") if r.time >= crashed_at
        ]
        assert (lost.source, lost.get("host")) == ("ws0/vced", "ws1")
        (redispatch,) = vce.sim.log.records(category="recovery.redispatch")
        assert redispatch.get("via") == "daemon-takeover"
        assert redispatch.get("src") == "ws1"
        assert redispatch.time - crashed_at < self.LEASE


class TestFailoverLearnsFromMembership:
    """Failover re-dispatches a crashed allocation when its class group's
    coordinator reports the host lost; it polls nothing while no instance
    fails."""

    def _pipeline(self, failover):
        """E9c's pipeline (ws:8, seed 15, 4 stages of 20 s), fault-free."""
        config = VCEConfig(seed=15, failover=failover)
        vce = VirtualComputingEnvironment(workstation_cluster(8), config).boot()
        run = vce.submit(build_pipeline_graph(stages=4, stage_work=20.0, name="pipe"))
        vce.run_to_completion(run, timeout=2_000.0)
        assert run.state is RunState.DONE
        return vce

    def test_failover_adds_no_kernel_event_when_nothing_fails(self):
        plain = self._pipeline(None)
        guarded = self._pipeline(FailoverConfig())
        assert guarded.failover is not None
        assert guarded.sim.events_processed == plain.sim.events_processed
        assert event_log_digest(guarded.sim.log) == event_log_digest(plain.sim.log)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_a_crashed_member_is_redispatched_on_the_coordinators_report(self, seed):
        """Four workstations, the coordinator (ws0) drained, one 30 s job:
        its host crashes, and the re-dispatch follows the coordinator's
        failure detector, not a timer."""
        vce = VirtualComputingEnvironment(
            workstation_cluster(4), VCEConfig(seed=seed, failover=FailoverConfig())
        ).boot()
        vce.drain_host("ws0")
        run = vce.submit(TestStaleIncarnation()._job())
        vce.sim.run(stop_when=lambda: vce.sim.log.count("task.start") == 1)
        (record,) = run.app.records.values()
        assert record.host_name != "ws0"
        crashed_at = vce.sim.now
        vce.network.host(record.host_name).crash()
        vce.run_to_completion(run, timeout=1_000.0)
        assert run.state is RunState.DONE
        (redispatch,) = vce.sim.log.records(category="recovery.redispatch")
        assert redispatch.get("via") == "daemon-takeover"
        isis = vce.config.isis
        delay = redispatch.time - crashed_at
        assert isis.hb_timeout <= delay <= isis.hb_timeout + isis.hb_interval

    def test_a_backstop_armed_for_an_earlier_strand_does_nothing(self):
        """The backstop fires ``lease`` after *its* strand: one left over
        from a strand the report already handled does not re-dispatch the
        next strand of the same record early."""
        from repro.migration import MigrationContext
        from repro.migration.failover import FailoverManager

        from tests.conftest import make_cluster, place_all_on

        cluster = make_cluster(3)
        graph = TestStaleIncarnation()._job()
        app = cluster.manager.submit(graph, place_all_on(graph, "ws0"))
        failover = FailoverManager(
            MigrationContext(cluster.manager, cluster.net), FailoverConfig(lease=8.0)
        ).install()
        cluster.run(until=5.0)
        cluster.hosts["ws0"].crash()  # strand 1; its backstop is due at 13
        cluster.run(until=6.0)
        failover.host_lost("ws0")  # the report re-dispatches strand 1
        record = app.record("job", 0)
        cluster.run(until=8.0)
        cluster.hosts[record.host_name].crash()  # strand 2; backstop at 16
        cluster.run(until=200.0)
        assert app.status is AppStatus.DONE
        redispatches = cluster.sim.log.records(category="recovery.redispatch")
        assert [(r.time, r.get("via")) for r in redispatches] == [
            (6.0, "daemon-takeover"), (16.0, "lease"),
        ]
