"""The cost ledger: what each canonical scenario costs, pinned exactly.

One row of ``tests/golden/costs.json`` per scenario records what a run did
and how much of the program it took to do it:

- ``digest`` — the full event log's :func:`event_log_digest`;
- ``events`` — kernel events processed (``sim.events_processed``);
- ``records`` — log records emitted;
- ``samples`` — telemetry samples taken (``sampler.ticks``);
- ``units`` — the useful work: task instances, or application messages for
  the stencil;
- ``calls`` — Python calls into ``repro.*`` per top-level subpackage
  (``sys.setprofile`` "call" events; comprehension frames are skipped
  because 3.12 inlines them, and module bodies run by a lazy import are
  skipped because whether they run depends on what ran before). The soak
  rows have none: profiling slows a run about sevenfold;
- soak rows also record ``submitted``, ``admitted``, ``completed``,
  ``failed``, ``peak_live_instances`` and ``bid_fanout_per_round``;
- the ``weather_*`` rows run one scenario under four observer sets, so
  ``calls.telemetry``, ``calls.controlplane`` and ``calls.analysis`` are
  what each observer costs (a run with telemetry off has no ``samples``);
- ``faults_e9`` records its recovery latencies, injected faults,
  retransmissions and makespan; ``faults_e9_calm`` is its fault-free twin.

Every field is a count, a digest or a simulated time of a seeded run, so
the comparison is exact: the ledger is also the whole-run determinism
gate. It was generated in another process, so nondeterminism that leaks
into the event schedule (hash-randomized set iteration, unseeded RNG,
wall-clock reads) fails it under a randomized ``PYTHONHASHSEED`` even when
one process agrees with itself. A change that makes a run do more work shows up as the field that
moved, e.g. ``dense: calls.taskgraph 21124 -> 21365``. What it cannot see
is a call that does the same work more slowly: wall time is perfbench's.

Regenerate after an *intended* change to what a run does::

    PYTHONPATH=src python tests/test_cost_ledger.py

and commit the updated file with the change that caused it.
"""

from __future__ import annotations

import functools
import gc
import json
import math
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.core import (
    VCEConfig,
    VirtualComputingEnvironment,
    heterogeneous_cluster,
    workstation_cluster,
)
from repro.controlplane.entities import ControlPlaneModel
from repro.controlplane.hub import SubscriptionHub, topic_matches
from repro.faults.schedule import FaultSchedule
from repro.machines import MachineClass
from repro.migration.failover import FailoverConfig
from repro.netsim import Simulator
from repro.runtime import RuntimeManager
from repro.scheduler import SchedulerDaemon
from repro.scheduler.execution_program import RunState
from repro.soak import SoakConfig, run_soak
from repro.telemetry.registry import exponential_bounds
from repro.telemetry.sampler import ClusterSampler
from repro.trace.replay import event_log_digest
from repro.util.eventlog import Category
from repro.workloads import (
    WEATHER_SCRIPT,
    build_pipeline_graph,
    build_random_dag,
    build_stencil_graph,
    weather_programs,
)

LEDGER = Path(__file__).resolve().parent / "golden" / "costs.json"


# --------------------------------------------------------------- scenarios


def _dag(layers: int, width: int, seed: int, **work: float):
    graph = build_random_dag(layers=layers, width=width, seed=seed, **work)
    vce = VirtualComputingEnvironment(
        workstation_cluster(4), VCEConfig(seed=seed)
    ).boot()
    run = vce.submit(graph, class_map={node.name: None for node in graph})
    vce.run_to_completion(run, timeout=1_000_000.0)
    assert run.state is RunState.DONE, run.error
    return vce, sum(node.instances for node in graph), {}


def _stencil(ranks: int, iterations: int, seed: int = 7):
    graph = build_stencil_graph(ranks=ranks, cells=64, iterations=iterations)
    vce = VirtualComputingEnvironment(
        workstation_cluster(ranks), VCEConfig(seed=seed)
    ).boot()
    run = vce.submit(graph, class_map={"grid": MachineClass.WORKSTATION})
    vce.run_to_completion(run, timeout=100_000.0)
    assert run.state is RunState.DONE, run.error
    sends = vce.sim.telemetry.get("vmpi_sends_total")
    return vce, int(sum(child.value for _labels, child in sends.samples())), {}


def _chaos_mix(seed: int):
    config = VCEConfig(seed=seed, failover=FailoverConfig())
    vce = VirtualComputingEnvironment(heterogeneous_cluster(), config).boot()
    vce.chaos("chaos-mix", seed=seed)
    runs = [
        vce.run_script(WEATHER_SCRIPT, weather_programs(), name="weather"),
        vce.submit(build_pipeline_graph(stages=4, stage_work=15.0, name="pipe")),
    ]
    for run in runs:
        vce.run_to_completion(run, timeout=2_000.0)
        assert run.state is RunState.DONE, run.error
    vce.run(until=vce.sim.now + 30.0)  # let trailing fault windows close
    return vce, sum(len(run.app.records) for run in runs), {}


#: the smallest latency factor above 1: every delay stays what it was to
#: within an ulp, but no group parks, so the observers see the failure
#: detector's beats and every grid point is a live sample
AWAKE = math.nextafter(1.0, 2.0)


def _weather(telemetry: bool = True, controlplane: bool = False, sanitizer: bool = False):
    """E1's weather script (hetero:6,2,1, seed 5) with the failure detector
    awake, under one set of observers; with *controlplane*, the entity
    model feeds a subscriber that never drains (its 64-event queue takes
    every publish: 76 of the 122 coalesce, none is dropped)."""
    vce = VirtualComputingEnvironment(
        heterogeneous_cluster(n_workstations=6),
        VCEConfig(seed=5, telemetry=telemetry, hb_sanitizer=sanitizer),
    )
    vce.network.set_latency_factor(AWAKE)  # before boot: nothing parks
    vce.boot()
    if controlplane:
        hub = ControlPlaneModel(vce).attach().hub
        slow = hub.subscribe("ledger-slow", limit=64)
    run = vce.run_script(
        WEATHER_SCRIPT,
        weather_programs(predict_work=200.0),
        works={"collector": 20, "usercollect": 10, "predictor": 200, "display": 2},
        name="snow",
    )
    vce.run_to_completion(run, timeout=5_000.0)
    assert run.state is RunState.DONE, run.error
    extra = {}
    if controlplane:
        extra.update(hub_published=hub.published, hub_matched=slow.matched)
    if sanitizer:
        extra.update(
            hb_nodes=vce.hb_tracker.nodes, protocol_violations=vce.protocol_monitor.violations
        )
    return vce, len(run.app.records), extra


def _faults_e9(faulty: bool):
    """E9c's run: a 4-stage pipeline under the fault-tolerant layer on
    ws:8, seed 15; when *faulty*, the host running the current stage is
    bounced for 4 s."""
    config = VCEConfig(seed=15, failover=FailoverConfig())
    vce = VirtualComputingEnvironment(workstation_cluster(8), config).boot()
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
    if not faulty:
        return vce, len(run.app.records), {"makespan": run.app.makespan}
    strands = {}
    latencies = []  # strand -> redispatch, per (app, task, rank)
    for record in vce.sim.log.records(category="recovery.strand"):
        strands[(record.source, record.get("task"), record.get("rank"))] = record.time
    for record in vce.sim.log.records(category="recovery.redispatch"):
        key = (record.source, record.get("task"), record.get("rank"))
        if key in strands:
            latencies.append(record.time - strands.pop(key))
    return vce, len(run.app.records), {
        "recovery_latencies": latencies,
        "injected": vce.chaos_controller.report(),
        "retransmissions": vce.network.retransmissions,
        "makespan": run.app.makespan,
    }


#: the flat (fanout 1) and hierarchical twins place identical workloads,
#: so their bid fan-out per round is comparable
SOAK = dict(
    tenants=8, apps=120, machines=48, seed=0, instances=(16, 32),
    work=(8.0, 16.0), arrival_span=90.0, telemetry_interval=300.0, settle=30.0,
)


def _soak(fanout: int):
    vce, _driver, report = run_soak(SoakConfig(fanout=fanout, **SOAK))
    units = sum(len(app.records) for app in vce.runtime.apps.values())
    fields = (
        "submitted", "admitted", "completed", "failed",
        "peak_live_instances", "bid_fanout_per_round",
    )
    return vce, units, {key: getattr(report, key) for key in fields}


SCENARIOS = {
    "randomdag_seed3": lambda: _dag(8, 8, seed=3),
    "randomdag_seed11": lambda: _dag(8, 8, seed=11),
    "chaosmix_seed3": lambda: _chaos_mix(3),
    "chaosmix_seed11": lambda: _chaos_mix(11),
    "randomdag_quick": lambda: _dag(12, 25, seed=7),
    "stencil_quick": lambda: _stencil(ranks=4, iterations=12),
    "dense": lambda: _dag(6, 100, seed=1, min_work=0.002, max_work=0.02),
    "sparse": lambda: _dag(4, 50, seed=1, min_work=2.0, max_work=20.0),
    "soak_flat": lambda: _soak(fanout=1),
    "soak_hier": lambda: _soak(fanout=4),
    "weather_quiet": lambda: _weather(telemetry=False),
    "weather_telemetry": lambda: _weather(),
    "weather_controlplane": lambda: _weather(controlplane=True),
    "weather_sanitizer": lambda: _weather(sanitizer=True),
    "faults_e9": lambda: _faults_e9(faulty=True),
    # its fault-free twin is a row of its own: a scenario keeps one
    # environment alive, and a dropped one would be cyclic garbage
    "faults_e9_calm": lambda: _faults_e9(faulty=False),
}


# ------------------------------------------------------------- measurement

_COMPREHENSIONS = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>"})
UNPROFILED = frozenset({"soak_flat", "soak_hier"})


def measure(name: str) -> dict:
    """Run scenario *name* and return its ledger row."""
    calls: Counter = Counter()
    importing = 0

    def profile(frame, event, _arg):
        nonlocal importing
        code = frame.f_code
        if code.co_name == "<module>":
            importing += (event == "call") - (event == "return")
        elif event == "call" and not importing and code.co_name not in _COMPREHENSIONS:
            module = frame.f_globals.get("__name__", "")
            if module.startswith("repro."):
                calls[module.split(".")[1]] += 1

    exponential_bounds.cache_clear()  # a warm cache would skip its frames
    # closing a collected generator is a "call" too: collect what earlier
    # runs left behind, and let no collection fall inside this one
    gc.collect()
    collecting = gc.isenabled()
    if name not in UNPROFILED:
        gc.disable()
        sys.setprofile(profile)
    try:
        vce, units, extra = SCENARIOS[name]()
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    row = {
        "digest": event_log_digest(vce.sim.log),
        "events": vce.sim.events_processed,
        "records": sum(vce.sim.log.category_counts().values()),
    }
    if vce.telemetry is not None:
        row["samples"] = vce.telemetry.sampler.ticks
    row.update(units=units, **extra)
    if calls:
        row["calls"] = dict(sorted(calls.items()))
    return row


def compare(name: str, row: dict, expected: dict) -> list[str]:
    """Every field where *row* differs from *expected*, one message each."""

    def flat(entry: dict) -> dict:
        out = {key: value for key, value in entry.items() if key != "calls"}
        out.update({f"calls.{k}": v for k, v in entry.get("calls", {}).items()})
        return out

    got, want = flat(row), flat(expected)
    return [
        f"{name}: {key} {want.get(key)} -> {got.get(key)}"
        for key in sorted(got.keys() | want.keys())
        if got.get(key) != want.get(key)
    ]


@functools.cache
def measured(name: str) -> dict:
    return measure(name)


@functools.cache
def ledger() -> dict:
    assert LEDGER.exists(), (
        f"missing {LEDGER}; regenerate with `PYTHONPATH=src python {__file__}`"
    )
    return json.loads(LEDGER.read_text())


# ------------------------------------------------------------------- tests


def test_ledger_has_one_row_per_scenario():
    assert sorted(ledger()) == sorted(SCENARIOS)


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_row_matches_ledger(name):
    failures = compare(name, measured(name), ledger()[name])
    assert not failures, (
        "the run diverged from the cost ledger — either nondeterminism "
        "leaked into the schedule, or an intended change needs a "
        "regenerated ledger (see module docstring):\n" + "\n".join(failures)
    )


@pytest.mark.parametrize("name", ["randomdag_seed3", "chaosmix_seed3"])
def test_rerun_in_one_process_is_identical(name):
    """A second run in the same process starts from fresh simulator state."""
    assert measure(name) == measured(name)


@pytest.mark.parametrize("name", ["soak_flat", "soak_hier"])
def test_soak_drains(name):
    row = measured(name)
    assert row["failed"] == 0
    assert row["completed"] == row["admitted"], "the soak did not drain"
    assert row["submitted"] == SOAK["apps"]


def test_hierarchy_polls_under_half_of_flat():
    """Hierarchical bidding is sub-linear against the flat broadcast."""
    flat = measured("soak_flat")["bid_fanout_per_round"]
    hier = measured("soak_hier")["bid_fanout_per_round"]
    assert flat / hier >= 2.0, f"fan-out reduction {flat / hier:.2f}x"


def test_ledger_catches_an_extra_arc_copy(monkeypatch):
    """Copying a task's out-arcs on every dispatch moves ``calls.taskgraph``."""
    dispatch = RuntimeManager.dispatch_instance

    def copying_dispatch(self, app, record, *args, **kwargs):
        app.graph.arcs_from(record.task)
        return dispatch(self, app, record, *args, **kwargs)

    monkeypatch.setattr(RuntimeManager, "dispatch_instance", copying_dispatch)
    failures = compare("dense", measure("dense"), ledger()["dense"])
    assert any(f.startswith("dense: calls.taskgraph ") for f in failures), failures


def test_ledger_catches_a_group_wide_queue_fan_out(monkeypatch):
    """Sending every enqueue to the whole group again (the replicated
    leader queue this repo used to keep), point to point to each member,
    moves ``soak_hier``'s events."""
    enqueue = SchedulerDaemon._enqueue

    def replicating_enqueue(self, request):
        for member in self.membership.view.members:
            if member != self.address:
                self.send(member, ("queue_add", request), size=512)
        enqueue(self, request)

    monkeypatch.setattr(SchedulerDaemon, "_enqueue", replicating_enqueue)
    failures = compare("soak_hier", measure("soak_hier"), ledger()["soak_hier"])
    assert any(f.startswith("soak_hier: events ") for f in failures), failures


def test_ledger_catches_a_second_emit_repack(monkeypatch):
    """Routing ``Simulator.emit``'s keyword form through
    ``EventLog.emit(**data)`` packs each such record's dict twice, and moves
    ``calls.util``."""

    def repacking_emit(self, category, source, *values, **data):
        if type(category) is Category:
            self.log.write(category, self.now, source, values)
        else:
            self.log.emit(self.now, category, source, **data)

    monkeypatch.setattr(Simulator, "emit", repacking_emit)
    failures = compare("stencil_quick", measure("stencil_quick"), ledger()["stencil_quick"])
    assert any(f.startswith("stencil_quick: calls.util ") for f in failures), failures


def test_ledger_catches_an_extra_call_per_grid_tick(monkeypatch):
    """One more registry lookup per sampler grid point moves
    ``weather_telemetry``'s ``calls.telemetry``."""
    grid_point = ClusterSampler._grid_point

    def looking_up_grid_point(self):
        self.sim.telemetry.get("isis_hb_ticks_total")
        grid_point(self)

    monkeypatch.setattr(ClusterSampler, "_grid_point", looking_up_grid_point)
    name = "weather_telemetry"
    failures = compare(name, measure(name), ledger()[name])
    assert any(f.startswith(f"{name}: calls.telemetry ") for f in failures), failures


def test_ledger_catches_an_extra_call_per_publish(monkeypatch):
    """One more topic match per hub publish moves
    ``weather_controlplane``'s ``calls.controlplane``."""
    publish = SubscriptionHub.publish

    def matching_publish(self, topic, *args, **kwargs):
        topic_matches(topic, ())
        return publish(self, topic, *args, **kwargs)

    monkeypatch.setattr(SubscriptionHub, "publish", matching_publish)
    name = "weather_controlplane"
    failures = compare(name, measure(name), ledger()[name])
    assert any(f.startswith(f"{name}: calls.controlplane ") for f in failures), failures


if __name__ == "__main__":
    rows = {name: measure(name) for name in SCENARIOS}
    LEDGER.write_text(json.dumps(rows, indent=2) + "\n")
    for name, row in rows.items():
        print(f"{name}: {row['digest'][:16]} {row['events']} events")
