"""The tracer leaves the program as it found it."""

from layers import LayerTracer, process_classes
from workloads import WORKLOADS

from repro.netexec.transport import FrameRouter
from repro.netsim.kernel import Simulator, Timer
from repro.netsim.network import Network
from repro.taskgraph.graph import TaskGraph


def snapshot():
    owners = [Simulator, Timer, Network, TaskGraph, FrameRouter, *process_classes()]
    return {
        (owner, attr): value
        for owner in owners
        for attr, value in vars(owner).items()
        if callable(value)
    }


def run_dag(trace: bool):
    workload = WORKLOADS["dag_sparse"](seed=5, scale=0.1)
    workload.setup()
    tracer = LayerTracer(workload) if trace else None
    if tracer is not None:
        tracer.install()
    try:
        workload.run()
    finally:
        if tracer is not None:
            tracer.restore()
    return workload.outcome(), tracer


def test_restore_puts_every_patched_attribute_back():
    before = snapshot()
    _outcome, tracer = run_dag(trace=True)
    after = snapshot()
    assert before.keys() == after.keys()
    assert all(before[key] is after[key] for key in before)
    assert tracer.self_s["netsim.kernel"] > 0


def test_tracing_does_not_change_the_digest():
    plain, _ = run_dag(trace=False)
    traced, tracer = run_dag(trace=True)
    assert plain.digest == traced.digest
    assert plain.failed == traced.failed == 0
    # every span has a parent except the outermost ones
    rows = tracer.span_rows()
    by_id = {row["id"]: row for row in rows}
    for row in rows:
        parent = row["parent"]
        if parent is not None:
            outer = by_id[parent]
            assert outer["start_s"] <= row["start_s"]
            assert row["start_s"] + row["dur_s"] <= outer["start_s"] + outer["dur_s"] + 1e-9
