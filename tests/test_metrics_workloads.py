"""Tests for the metrics collector, report formatting, and workloads."""

import pytest

from repro.metrics import MetricsCollector, format_series, format_table
from repro.metrics.collector import _merge
from repro.core import VirtualComputingEnvironment, workstation_cluster
from repro.scheduler.execution_program import RunState
from repro.util.eventlog import EventLog
from repro.workloads import (
    build_diamond_graph,
    build_monte_carlo_graph,
    build_pipeline_graph,
    build_random_dag,
    build_sweep_graph,
    build_weather_graph,
)


class TestMergeIntervals:
    def test_empty(self):
        assert _merge([]) == []

    def test_disjoint(self):
        assert _merge([(0, 1), (2, 3)]) == [(0, 1), (2, 3)]

    def test_overlapping_merged(self):
        assert _merge([(0, 2), (1, 4), (5, 6)]) == [(0, 4), (5, 6)]

    def test_contained(self):
        assert _merge([(0, 10), (2, 3)]) == [(0, 10)]


class TestCollector:
    def _run_vce(self):
        vce = VirtualComputingEnvironment(workstation_cluster(4)).boot()
        run = vce.submit(build_pipeline_graph(stages=3, stage_work=4.0))
        vce.run_to_completion(run)
        return vce, run

    def test_app_makespans(self):
        vce, run = self._run_vce()
        makespans = vce.metrics().app_makespans()
        assert len(makespans) == 1
        assert list(makespans.values())[0] == pytest.approx(run.app.makespan, rel=1e-6)

    def test_utilization_positive_on_used_hosts(self):
        vce, run = self._run_vce()
        horizon = vce.sim.now
        util = vce.metrics().utilization(horizon)
        used = {run.placement.host_for(f"s{i}", 0) for i in range(3)}
        for host in used:
            assert util.get(host, 0.0) > 0.0

    def test_allocation_latencies(self):
        vce, run = self._run_vce()
        latencies = vce.metrics().allocation_latencies()
        assert latencies and all(0 < l < 10 for l in latencies)

    def test_allocation_latency_matches_trace_alloc_span(self):
        vce, run = self._run_vce()
        latencies = vce.metrics().allocation_latencies()
        assert run.allocation_latency in [pytest.approx(l) for l in latencies]

    def test_bid_counts(self):
        vce, run = self._run_vce()
        counts = vce.metrics().bid_counts()
        assert counts and counts[0] == 4  # all four workstations bid

    def test_throughput(self):
        vce, run = self._run_vce()
        assert vce.metrics().throughput(vce.sim.now) > 0

    def test_allocation_pairs_by_req_id_out_of_order(self):
        log = EventLog()
        log.emit(0.0, "exec.request", "exec-1", req_id="r1")
        log.emit(1.0, "exec.request", "exec-1", req_id="r2")
        log.emit(2.0, "exec.reply", "exec-1", req_id="r2")
        log.emit(5.0, "exec.reply", "exec-1", req_id="r1")
        assert MetricsCollector(log).allocation_latencies() == [1.0, 5.0]

    def test_allocation_one_reply_answers_only_one_request(self):
        # the old quadratic pairing matched one reply to every earlier
        # request from the same source, double-counting latencies
        log = EventLog()
        log.emit(0.0, "exec.request", "exec-1", req_id="r1")
        log.emit(1.0, "exec.request", "exec-1", req_id="r2")
        log.emit(2.0, "exec.reply", "exec-1", req_id="r1")
        assert MetricsCollector(log).allocation_latencies() == [2.0]

    def test_allocation_fifo_fallback_without_req_ids(self):
        log = EventLog()
        log.emit(0.0, "exec.request", "exec-1")
        log.emit(1.0, "exec.request", "exec-1")
        log.emit(2.0, "exec.reply", "exec-1")
        log.emit(3.0, "exec.reply", "exec-1")
        assert MetricsCollector(log).allocation_latencies() == [2.0, 2.0]

    def test_allocation_sources_do_not_cross_pair(self):
        log = EventLog()
        log.emit(0.0, "exec.request", "exec-1", req_id="a")
        log.emit(0.0, "exec.request", "exec-2", req_id="b")
        log.emit(1.0, "exec.reply", "exec-2", req_id="b")
        assert MetricsCollector(log).allocation_latencies() == [1.0]

    def test_allocation_reply_without_request_ignored(self):
        log = EventLog()
        log.emit(1.0, "exec.reply", "exec-1", req_id="ghost")
        assert MetricsCollector(log).allocation_latencies() == []

    def test_suspension_spans(self):
        log = EventLog()
        log.emit(1.0, "task.suspend", "x", app="a", task="t", rank=0)
        log.emit(4.0, "task.resume", "x", app="a", task="t", rank=0)
        spans = MetricsCollector(log).suspension_spans()
        assert spans == [3.0]

    def test_migration_latency_by_scheme(self):
        log = EventLog()
        log.emit(1.0, "migration.done", "t[0]", scheme="dump", latency=0.8)
        log.emit(2.0, "migration.done", "t[0]", scheme="dump", latency=1.0)
        log.emit(3.0, "migration.done", "t[1]", scheme="checkpoint", latency=0.1)
        by_scheme = MetricsCollector(log).migration_latency_by_scheme()
        assert by_scheme["dump"] == [0.8, 1.0]
        assert by_scheme["checkpoint"] == [0.1]


class TestReport:
    def test_format_table(self):
        table = format_table(
            ["scheme", "latency"], [["dump", 0.81234], ["checkpoint", 12.0]], title="E5"
        )
        lines = table.splitlines()
        assert lines[0] == "E5"
        assert "scheme" in lines[1] and "dump" in lines[3]

    def test_format_table_empty_rows(self):
        table = format_table(["a", "b"], [])
        assert "a" in table

    def test_format_series(self):
        series = format_series("speedup", [1, 2, 4], [1.0, 1.9, 3.5])
        assert series.startswith("speedup:")
        assert "(4, 3.50)" in series


class TestWorkloads:
    def test_weather_graph_annotated(self):
        graph = build_weather_graph()
        for node in graph:
            assert node.designed and node.coded
        assert graph.task("collector").instances == 2
        assert graph.task("display").local
        path, length = graph.critical_path()
        assert "predictor" in path

    def test_monte_carlo_deterministic(self):
        g1 = build_monte_carlo_graph(workers=2, seed=5)
        g2 = build_monte_carlo_graph(workers=2, seed=5)
        assert g1.task("worker").instances == 2
        assert g1.task("worker").hints.checkpointable

    def test_pipeline_structure(self):
        graph = build_pipeline_graph(stages=4)
        assert graph.levels() == [["s0"], ["s1"], ["s2"], ["s3"]]

    def test_diamond_structure(self):
        graph = build_diamond_graph(width=3)
        levels = graph.levels()
        assert levels[0] == ["source"] and levels[-1] == ["sink"]
        assert len(levels[1]) == 3

    def test_random_dag_valid_and_deterministic(self):
        g1 = build_random_dag(layers=4, width=4, seed=9)
        g2 = build_random_dag(layers=4, width=4, seed=9)
        g1.validate()
        assert sorted(t.name for t in g1) == sorted(t.name for t in g2)
        assert len(g1.arcs) == len(g2.arcs)
        different = build_random_dag(layers=4, width=4, seed=10)
        assert (
            sorted(t.name for t in g1) != sorted(t.name for t in different)
            or len(g1.arcs) != len(different.arcs)
            or [t.work for t in g1] != [t.work for t in different]
        )

    def test_random_dag_every_nonroot_has_parent(self):
        graph = build_random_dag(layers=5, width=3, seed=2)
        roots = set(graph.roots())
        for node in graph:
            if node.name not in roots:
                assert graph.predecessors(node.name)

    def test_sweep_instances(self):
        graph = build_sweep_graph(points=6)
        assert graph.task("point").instances == 6

    def test_all_workloads_run_on_vce(self):
        vce = VirtualComputingEnvironment(workstation_cluster(6)).boot()
        for graph in (
            build_pipeline_graph(stages=2, stage_work=2.0, name="w1"),
            build_diamond_graph(width=2, branch_work=3.0, name="w2"),
            build_random_dag(layers=2, width=2, seed=1, name="w3"),
            build_sweep_graph(points=3, work_per_point=2.0, name="w4"),
        ):
            run = vce.submit(graph)
            vce.run_to_completion(run)
            assert run.state is RunState.DONE, graph.name


class TestTimeline:
    def _spans(self):
        from repro.metrics import build_timeline

        vce = VirtualComputingEnvironment(workstation_cluster(3)).boot()
        run = vce.submit(build_pipeline_graph(stages=2, stage_work=5.0))
        vce.run_to_completion(run)
        return build_timeline(vce.sim.log, horizon=vce.sim.now), vce.sim.now

    def test_build_timeline_task_spans(self):
        spans, horizon = self._spans()
        task_spans = [s for s in spans if s.kind == "task"]
        assert len(task_spans) == 2
        for span in task_spans:
            assert 0 <= span.start < span.end <= horizon
            assert span.end - span.start >= 5.0

    def test_render_gantt_shape(self):
        from repro.metrics import render_gantt

        spans, horizon = self._spans()
        chart = render_gantt(spans, horizon, width=40)
        lines = chart.splitlines()
        assert any("#" in line for line in lines[1:])
        # every row has the same drawn width
        widths = {len(line.split("|")[1]) for line in lines[1:]}
        assert widths == {40}

    def test_down_spans(self):
        from repro.faults import FaultSchedule
        from repro.metrics import build_timeline, render_gantt

        vce = VirtualComputingEnvironment(workstation_cluster(2)).boot()
        vce.chaos(FaultSchedule("bounce").bounce(1.0, "ws1", down_for=4.0))
        vce.run(until=vce.sim.now + 10.0)
        spans = build_timeline(vce.sim.log, horizon=vce.sim.now)
        downs = [s for s in spans if s.kind == "down"]
        assert len(downs) == 1 and downs[0].host == "ws1"
        assert downs[0].end - downs[0].start == pytest.approx(4.0)
        chart = render_gantt(spans, vce.sim.now, width=30, hosts=["ws0", "ws1"])
        assert "x" in chart

    def test_host_busy_fraction(self):
        from repro.metrics import host_busy_fraction

        spans, horizon = self._spans()
        fractions = host_busy_fraction(spans, horizon)
        assert fractions and all(0 < f <= 1 for f in fractions.values())

    def test_empty_log(self):
        from repro.metrics import build_timeline, render_gantt
        from repro.util.eventlog import EventLog

        spans = build_timeline(EventLog())
        assert spans == []
        assert render_gantt(spans, 0.0) == "(empty timeline)"
