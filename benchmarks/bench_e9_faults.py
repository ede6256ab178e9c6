"""E9 — fault tolerance: leader failure, daemon churn, task recovery (§5).

"Isis provides error notification functions which are used to allow the
oldest surviving member of the group to assume the role of group leader in
case the group leader fails. Machines can enter or leave the group at any
time."

Measured:

1. leadership-transfer latency vs the failure-detection timeout (an
   ablation over the heartbeat knob);
2. application completion under daemon churn: machines keep crashing and
   recovering while a stream of jobs is submitted — every job whose
   machines survive completes, and new leaders keep allocating;
3. task-recovery latency under the fault-tolerant execution layer: a host
   running a pipeline stage is crash-restarted mid-run, and the strand →
   re-dispatch deltas plus the makespan penalty vs a fault-free twin are
   recorded in ``BENCH_faults.json`` at the repo root.
"""

import json
import statistics
from pathlib import Path

from benchmarks._common import fresh_vce, once, workstations
from repro.core import VCEConfig
from repro.faults import FaultSchedule, leadership_transfer_times
from repro.isis import IsisConfig
from repro.machines import MachineClass
from repro.metrics import format_series, format_table
from repro.migration.failover import FailoverConfig
from repro.scheduler.execution_program import RunState
from repro.workloads import build_pipeline_graph, build_sweep_graph

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_faults.json"

TIMEOUTS = [1.0, 2.0, 4.0, 8.0]


def _transfer_time(hb_timeout: float, seed=13):
    config = VCEConfig(
        seed=seed,
        isis=IsisConfig(hb_interval=hb_timeout / 4, hb_timeout=hb_timeout),
        settle_time=20.0,
    )
    vce = fresh_vce(workstations(5), config=config)
    vce.faults.crash_leader_at(vce.directory, MachineClass.WORKSTATION, vce.sim.now + 1.0)
    vce.run(until=vce.sim.now + 40.0 + 10 * hb_timeout)
    times = leadership_transfer_times(vce.sim.log, "vce.WORKSTATION")
    assert times, f"no takeover happened for hb_timeout={hb_timeout}"
    # scheduling still works under the new leader
    run = vce.submit(build_sweep_graph(points=1, work_per_point=1.0, name="probe"))
    vce.run_to_completion(run)
    assert run.state is RunState.DONE
    return times[0]


def bench_e9_leader_recovery_latency(benchmark):
    def experiment():
        return {t: _transfer_time(t) for t in TIMEOUTS}

    results = once(benchmark, experiment)
    print()
    print(
        format_table(
            ["hb timeout (s)", "leadership transfer (s)"],
            [[t, v] for t, v in results.items()],
            title="E9: leader-crash recovery vs failure-detection timeout",
        )
    )
    print(format_series("transfer", list(results), list(results.values())))
    # recovery latency tracks the detection timeout (rank-1 takeover fires
    # after ~2x hb_timeout plus a flush round)
    values = [results[t] for t in TIMEOUTS]
    assert all(a < b for a, b in zip(values, values[1:]))
    for timeout, value in results.items():
        assert value < 8 * timeout + 5.0


def bench_e9_churn_survival(benchmark):
    """Jobs keep completing while non-leader machines churn."""

    def experiment():
        config = VCEConfig(seed=14, settle_time=20.0)
        vce = fresh_vce(workstations(8), config=config)
        leader_host = vce.directory.leader(MachineClass.WORKSTATION).host
        # churn everything except the leader and ws7 (so capacity remains)
        vce.faults.churn(
            [f"ws{i}" for i in range(8)],
            mean_up=60.0,
            mean_down=20.0,
            until=vce.sim.now + 400.0,
            spare={leader_host, "ws7"},
        )
        outcomes = []
        for i in range(8):
            run = vce.submit(
                build_sweep_graph(points=1, work_per_point=5.0, name=f"job{i}"),
                queue_if_insufficient=True,
            )
            vce.run(until=vce.sim.now + 50.0)
            outcomes.append(run)
        vce.run(until=vce.sim.now + 300.0)
        done = sum(1 for r in outcomes if r.state is RunState.DONE)
        crashes = vce.faults.crashes
        return done, len(outcomes), crashes

    done, total, crashes = once(benchmark, experiment)
    print()
    print(
        format_table(
            ["jobs submitted", "jobs completed", "host crashes injected"],
            [[total, done, crashes]],
            title="E9b: job survival under daemon churn",
        )
    )
    assert crashes >= 3  # the churn actually happened
    assert done >= total - 1  # at most one straggler lost to timing


def _pipeline_run(seed: int, faulty: bool):
    """One 4-stage pipeline with the fault-tolerant layer on; when
    *faulty*, the host running the current stage is crash-restarted."""
    config = VCEConfig(seed=seed, failover=FailoverConfig())
    vce = fresh_vce(workstations(8), config=config)
    run = vce.submit(build_pipeline_graph(stages=4, stage_work=20.0, name="pipe"))
    if faulty:
        vce.run(until=vce.sim.now + 5.0)  # let a stage start executing
        victim = next(
            record.host_name
            for record in run.app.records.values()
            if record.host_name is not None
        )
        vce.chaos(FaultSchedule("bounce").bounce(0.0, victim, down_for=4.0))
    vce.run_to_completion(run, timeout=2_000.0)
    assert run.state is RunState.DONE, run.error
    vce.run(until=vce.sim.now + 10.0)  # drain trailing recovery events
    return vce, run


def _recovery_latencies(vce) -> list[float]:
    """strand → redispatch deltas per (app, task, rank) from the log."""
    strands = {}
    latencies = []
    for record in vce.sim.log.records(category="recovery.strand"):
        strands[(record.source, record.get("task"), record.get("rank"))] = record.time
    for record in vce.sim.log.records(category="recovery.redispatch"):
        key = (record.source, record.get("task"), record.get("rank"))
        if key in strands:
            latencies.append(record.time - strands.pop(key))
    return latencies


def bench_e9_task_recovery_latency(benchmark):
    """E9c: the fault-tolerant execution layer's recovery latency."""

    def experiment():
        faulty_vce, faulty_run = _pipeline_run(seed=15, faulty=True)
        calm_vce, calm_run = _pipeline_run(seed=15, faulty=False)
        latencies = _recovery_latencies(faulty_vce)
        hist = faulty_vce.telemetry.registry.get("recovery_latency_seconds")
        return {
            "latencies": latencies,
            "histogram_count": 0 if hist is None else hist.labels().count,
            "histogram_p50": None if hist is None else hist.quantile(0.5),
            "injected": faulty_vce.chaos_controller.report(),
            "retransmissions": faulty_vce.network.retransmissions,
            "makespan_faulty": faulty_run.app.makespan,
            "makespan_calm": calm_run.app.makespan,
        }

    result = once(benchmark, experiment)
    latencies = result["latencies"]
    ratio = result["makespan_faulty"] / result["makespan_calm"]
    print()
    print(
        format_table(
            ["quantity", "value"],
            [
                ["recoveries", len(latencies)],
                ["recovery latency mean (s)", f"{statistics.mean(latencies):.3f}"],
                ["recovery latency max (s)", f"{max(latencies):.3f}"],
                ["makespan fault-free (s)", f"{result['makespan_calm']:.2f}"],
                ["makespan under faults (s)", f"{result['makespan_faulty']:.2f}"],
                ["makespan penalty", f"{ratio:.2f}x"],
            ],
            title="E9c: task recovery under a daemon crash-restart",
        )
    )

    RESULT_PATH.write_text(
        json.dumps(
            {
                "workload": "4-stage pipeline (stage_work=20) on ws:8, seed 15, "
                            "bounce of the executing host (down 4 s)",
                "injected_faults": result["injected"],
                "recoveries": len(latencies),
                "recovery_latency_seconds": {
                    "mean": statistics.mean(latencies),
                    "p50": statistics.median(latencies),
                    "max": max(latencies),
                    "samples": latencies,
                },
                "histogram": {
                    "count": result["histogram_count"],
                    "p50": result["histogram_p50"],
                },
                "retransmissions": result["retransmissions"],
                "makespan_seconds": {
                    "fault_free": result["makespan_calm"],
                    "under_faults": result["makespan_faulty"],
                    "penalty_ratio": ratio,
                },
            },
            indent=2,
        )
        + "\n"
    )
    assert result["injected"].get("crash") == 1
    assert latencies, "the bounce never stranded a task"
    # detection delay (2 s) dominates; anything near the lease (8 s) means
    # the failure handler missed the crash
    assert max(latencies) < 6.0
    assert ratio < 3.0
