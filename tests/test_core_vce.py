"""Integration tests for the VirtualComputingEnvironment facade."""

import pytest

from repro.core import (
    VCEConfig,
    VirtualComputingEnvironment,
    heterogeneous_cluster,
    workstation_cluster,
)
from repro.faults import FaultSchedule
from repro.machines import MachineClass
from repro.runtime import AppStatus
from repro.scheduler.execution_program import RunState
from repro.util.errors import ConfigurationError, ScriptError
from repro.vmpi import Compute
from repro.workloads import (
    WEATHER_SCRIPT,
    build_monte_carlo_graph,
    build_pipeline_graph,
    build_weather_graph,
    weather_programs,
)


class TestBootAndSubmit:
    def test_boot_forms_groups(self):
        vce = VirtualComputingEnvironment(heterogeneous_cluster()).boot()
        assert vce.directory.has_group(MachineClass.WORKSTATION)
        assert vce.directory.has_group(MachineClass.MIMD)
        assert vce.directory.has_group(MachineClass.SIMD)

    def test_submit_before_boot_rejected(self):
        vce = VirtualComputingEnvironment(workstation_cluster(2))
        with pytest.raises(ConfigurationError, match="boot"):
            vce.submit(build_pipeline_graph(stages=2))

    def test_empty_cluster_rejected(self):
        with pytest.raises(ConfigurationError):
            VirtualComputingEnvironment([])

    def test_datagram_transport_is_gone(self):
        """The sequenced reliable transport is the only one; asking for the
        removed datagram mode is an error, not a silent upgrade."""
        assert VCEConfig().reliable_transport
        with pytest.raises(ValueError, match="datagram"):
            VCEConfig(reliable_transport=False)

    def test_pipeline_runs_to_completion(self):
        vce = VirtualComputingEnvironment(workstation_cluster(4)).boot()
        run = vce.submit(build_pipeline_graph(stages=3, stage_work=5.0))
        vce.run_to_completion(run)
        assert run.state is RunState.DONE
        assert run.app.status is AppStatus.DONE

    def test_monte_carlo_estimates_pi(self):
        vce = VirtualComputingEnvironment(workstation_cluster(4)).boot()
        run = vce.submit(build_monte_carlo_graph(workers=4, samples_per_worker=20_000))
        vce.run_to_completion(run)
        assert run.state is RunState.DONE
        estimates = run.app.results("worker")
        assert all(abs(e - 3.14159) < 0.15 for e in estimates)
        assert len(set(estimates)) == 1  # allreduce agreed everywhere

    def test_default_class_map_prefers_best_feasible(self):
        vce = VirtualComputingEnvironment(heterogeneous_cluster()).boot()
        graph = build_weather_graph()
        class_map = vce.default_class_map(graph)
        assert class_map["predictor"] is MachineClass.SIMD  # SYNC -> SIMD
        assert class_map["display"] is None  # local
        assert class_map["collector"] is MachineClass.WORKSTATION

    def test_weather_graph_end_to_end(self):
        vce = VirtualComputingEnvironment(heterogeneous_cluster()).boot()
        run = vce.submit(build_weather_graph(predict_work=100.0))
        vce.run_to_completion(run)
        assert run.state is RunState.DONE
        assert run.app.results("display") == ["displayed"]
        assert run.placement.host_for("predictor", 0).startswith("simd")
        assert run.placement.host_for("display", 0) == "user"

    def test_two_concurrent_applications(self):
        vce = VirtualComputingEnvironment(workstation_cluster(6)).boot()
        r1 = vce.submit(build_pipeline_graph(stages=2, stage_work=8.0, name="p1"))
        r2 = vce.submit(build_pipeline_graph(stages=2, stage_work=8.0, name="p2"))
        vce.run(until=vce.sim.now + 120.0)
        assert r1.state is RunState.DONE and r2.state is RunState.DONE

    def test_metrics_accessible(self):
        vce = VirtualComputingEnvironment(workstation_cluster(3)).boot()
        run = vce.submit(build_pipeline_graph(stages=2, stage_work=2.0))
        vce.run_to_completion(run)
        metrics = vce.metrics()
        assert metrics.app_makespans()
        assert metrics.message_totals()["sent"] > 0


class TestScripts:
    def test_weather_script_end_to_end(self):
        vce = VirtualComputingEnvironment(heterogeneous_cluster()).boot()
        run = vce.run_script(
            WEATHER_SCRIPT,
            weather_programs(predict_work=100.0),
            works={"collector": 20, "usercollect": 10, "predictor": 100, "display": 2},
            name="snow",
        )
        vce.run_to_completion(run)
        assert run.state is RunState.DONE
        assert run.app.results("display") == ["displayed"]
        # ASYNC 2 -> two collector instances
        assert len(run.app.task_records("collector")) == 2
        assert run.placement.host_for("predictor", 0).startswith("simd")

    def test_script_with_ranges_and_conditionals(self):
        script = '''
        SET wanted = 4
        IF AVAILABLE(WORKSTATION) >= wanted THEN
            ASYNC 4- "/apps/x/worker.vce"
        ELSE
            ASYNC 1 "/apps/x/worker.vce"
        ENDIF
        LOCAL "/apps/x/view.vce"
        '''

        def worker(ctx):
            yield Compute(2.0)
            return ctx.rank

        def view(ctx):
            yield Compute(0.5)
            return "ok"

        vce = VirtualComputingEnvironment(workstation_cluster(6)).boot()
        run = vce.run_script(script, {"worker": worker, "view": view})
        vce.run_to_completion(run)
        assert run.state is RunState.DONE
        # 4- with 6 machines available -> up to 4 instances
        assert 1 <= len(run.app.task_records("worker")) <= 4

    def test_script_channels_become_stream_arcs(self):
        script = '''
        ASYNC 1 "/a/producer.vce"
        ASYNC 1 "/a/consumer.vce"
        CHANNEL pipe FROM "/a/producer.vce" TO "/a/consumer.vce" VOLUME 100
        '''
        from repro.vmpi import Recv, Send

        def producer(ctx):
            yield Send(dst="consumer[0]", data=7, channel="pipe")

        def consumer(ctx):
            _, value = yield Recv(channel="pipe")
            return value

        vce = VirtualComputingEnvironment(workstation_cluster(3)).boot()
        run = vce.run_script(script, {"producer": producer, "consumer": consumer})
        vce.run_to_completion(run)
        assert run.state is RunState.DONE
        assert run.app.results("consumer") == [7]

    def test_missing_program_rejected(self):
        vce = VirtualComputingEnvironment(workstation_cluster(2)).boot()
        with pytest.raises(ScriptError, match="no programs"):
            vce.run_script('LOCAL "/a/ghost.vce"', {})


class TestAnticipatoryIntegration:
    def test_anticipatory_config_compiles_ahead(self):
        config = VCEConfig(anticipatory=True)
        vce = VirtualComputingEnvironment(workstation_cluster(4), config).boot()
        graph = build_pipeline_graph(stages=2, stage_work=2.0)
        run = vce.submit(graph)
        vce.run_to_completion(run)
        assert run.state is RunState.DONE
        assert vce.anticipatory.compiles_completed > 0


class TestFaultToleranceIntegration:
    def test_app_completes_despite_leader_crash_before_submit(self):
        vce = VirtualComputingEnvironment(workstation_cluster(5)).boot()
        leader = vce.leader_of(MachineClass.WORKSTATION).host.name
        vce.chaos(FaultSchedule("leader-crash").crash(1.0, leader))
        vce.run(until=vce.sim.now + 30.0)  # takeover completes
        run = vce.submit(build_pipeline_graph(stages=2, stage_work=3.0))
        vce.run_to_completion(run)
        assert run.state is RunState.DONE

    def test_migration_selector_wired(self):
        vce = VirtualComputingEnvironment(workstation_cluster(3)).boot()
        graph = build_pipeline_graph(stages=1, stage_work=30.0)
        run = vce.submit(graph)
        vce.run(until=vce.sim.now + 10.0)
        app = run.app
        record = app.record("s0", 0)
        src = record.host_name
        target = next(n for n in ("ws0", "ws1", "ws2") if n != src)
        scheme = vce.migration.migrate(app, record, target)
        vce.run_to_completion(run)
        assert run.state is RunState.DONE
        assert record.host_name == target
        assert scheme.name in ("dump", "checkpoint")
