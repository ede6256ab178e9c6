"""Property-based tests (hypothesis) on core invariants.

These complement the example-based suites: each property is an invariant
the system must hold for *any* input in the strategy's domain.
"""

import random

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.machines import MachineClass
from repro.metrics.collector import _merge
from repro.objects import wire_size
from repro.scheduler import (
    AgingQueue,
    MachineBid,
    ResourceRequest,
    greedy_assignment,
    load_sorted_assignment,
    random_assignment,
    round_robin_assignment,
    utilization_first_assignment,
)
from repro.scheduler.messages import ModuleNeed
from repro.runtime import Application, AppStatus, InstanceState, RuntimeManager
from repro.taskgraph import ArcKind, TaskGraph, TaskNode
from repro.util.rng import RngStreams
from repro.vmpi import Compute

from tests.conftest import make_cluster, round_robin_placement
from tests.helpers_telemetry import assert_matches_reference, health_records


# ---------------------------------------------------------------- intervals


@given(
    st.lists(
        st.tuples(
            st.floats(0, 1000, allow_nan=False), st.floats(0, 1000, allow_nan=False)
        ).map(lambda t: (min(t), max(t))),
        max_size=30,
    )
)
def test_merge_intervals_invariants(intervals):
    merged = _merge(intervals)
    # sorted, disjoint, non-touching
    for (s1, e1), (s2, e2) in zip(merged, merged[1:]):
        assert e1 < s2
    # total coverage preserved: every input point is inside some output
    for s, e in intervals:
        assert any(ms <= s and e <= me for ms, me in merged)
    # merged length >= max single interval, <= sum of lengths
    if intervals:
        total = sum(e - s for s, e in merged)
        assert total <= sum(e - s for s, e in intervals) + 1e-9
        assert total >= max(e - s for s, e in intervals) - 1e-9


# ------------------------------------------------------------------ marshal


@given(
    st.recursive(
        st.one_of(
            st.none(),
            st.booleans(),
            st.integers(-(2**40), 2**40),
            st.floats(allow_nan=False, allow_infinity=False),
            st.text(max_size=50),
        ),
        lambda children: st.one_of(
            st.lists(children, max_size=5),
            st.dictionaries(st.text(max_size=8), children, max_size=5),
        ),
        max_leaves=20,
    )
)
def test_wire_size_positive_and_4_aligned_for_leaves(value):
    size = wire_size(value)
    assert size >= 4
    assert isinstance(size, int)


@given(st.text(max_size=200))
def test_wire_size_string_monotone_in_length(s):
    assert wire_size(s + "x") >= wire_size(s)


# ------------------------------------------------------------------- graphs


@st.composite
def random_dags(draw):
    n = draw(st.integers(2, 12))
    graph = TaskGraph("prop")
    for i in range(n):
        graph.add_task(TaskNode(f"t{i}", work=draw(st.floats(0.1, 10))))
    for j in range(1, n):
        # edges only from lower to higher index: guaranteed acyclic
        parents = draw(
            st.lists(st.integers(0, j - 1), unique=True, max_size=min(3, j))
        )
        for p in parents:
            graph.connect(f"t{p}", f"t{j}")
    return graph


@given(random_dags())
def test_topological_order_respects_arcs(graph):
    order = {name: i for i, name in enumerate(graph.topological_order())}
    for arc in graph.arcs:
        assert order[arc.src] < order[arc.dst]


@given(random_dags())
def test_critical_path_bounds(graph):
    path, length = graph.critical_path()
    assert length <= graph.total_work() + 1e-9
    assert length >= max(t.work for t in graph) - 1e-9
    # the path is a real chain in the graph
    for a, b in zip(path, path[1:]):
        assert b in graph.successors(a)
    assert abs(sum(graph.task(p).work for p in path) - length) < 1e-9


@given(random_dags())
def test_levels_partition_and_respect_depth(graph):
    levels = graph.levels()
    flat = [n for level in levels for n in level]
    assert sorted(flat) == sorted(t.name for t in graph)
    index = {n: i for i, level in enumerate(levels) for n in level}
    for arc in graph.arcs:
        assert index[arc.src] < index[arc.dst]


# ------------------------------------------------------ dependency counters


@st.composite
def layered_runs(draw):
    """A layered DAG to run: multi-instance tasks; precedence arcs
    (DEPENDENCY and DATA) from any lower to any higher layer, repeats
    allowed and in drawn order, so parallel arcs interleave with others;
    STREAM arcs between any two tasks (cycles allowed)."""
    layers = [
        [f"l{i}n{j}" for j in range(draw(st.integers(1, 3)))]
        for i in range(draw(st.integers(2, 4)))
    ]
    names = [name for layer in layers for name in layer]
    tasks = [
        (name, draw(st.integers(1, 2)), draw(st.sampled_from([0.5, 1.0, 1.5, 2.0])))
        for name in names
    ]
    downward = [
        (a, b)
        for i, layer in enumerate(layers)
        for a in layer
        for lower in layers[i + 1:]
        for b in lower
    ]
    arcs = draw(st.lists(
        st.tuples(
            st.sampled_from(downward),
            st.sampled_from([(ArcKind.DEPENDENCY, 0), (ArcKind.DATA, 4096)]),
        ),
        max_size=14,
    ))
    streams = draw(st.lists(
        st.tuples(st.sampled_from(names), st.sampled_from(names)).filter(
            lambda pair: pair[0] != pair[1]
        ),
        max_size=3,
    ))
    return tasks, arcs, streams


def _layered_graph(case):
    tasks, arcs, streams = case

    def burst(work):
        def program(ctx):
            yield Compute(work)
        return program

    graph = TaskGraph("layered")
    for name, instances, work in tasks:
        graph.add_task(TaskNode(name, work=work, instances=instances, program=burst(work)))
    for (src, dst), (kind, volume) in arcs:
        graph.connect(src, dst, kind, volume)
    for src, dst in streams:
        graph.connect(src, dst, ArcKind.STREAM)
    return graph


class RescanManager(RuntimeManager):
    """The reference: ignores what the counters released and finds what a
    completion made ready by asking the arc list and the records about
    every task of the graph."""

    def _instance_exited(self, app, record, instance, state, outcome):
        self._completed = record.task
        super()._instance_exited(app, record, instance, state, outcome)

    def _advance(self, app, released):
        precedence = [a for a in app.graph.arcs if a.kind is not ArcKind.STREAM]
        records = list(app.records.values())

        def done(task):
            return all(r.state is InstanceState.DONE for r in records if r.task == task)

        def untouched(task):
            return all(
                r.dispatched_at is None and r.state is InstanceState.PENDING
                for r in records if r.task == task
            )

        ready = [
            node.name for node in app.graph
            if untouched(node.name)
            and all(done(a.src) for a in precedence if a.dst == node.name)
        ]
        # dispatch order: the completed task's successor arcs first
        first = dict.fromkeys(a.dst for a in precedence if a.src == self._completed)
        order = [t for t in first if t in ready] + [t for t in ready if t not in first]
        super()._advance(app, order)


def _dispatch_sequence(manager_class, case, victim, at):
    """Run *case* and re-dispatch one record (as failover does) at *at*,
    whatever state it is in by then: running, or done and so taken back."""
    cluster = make_cluster(3)
    manager = manager_class(cluster.sim, cluster.net)
    graph = _layered_graph(case)
    app = manager.submit(graph, round_robin_placement(graph, ["ws0", "ws1", "ws2"]))
    record = list(app.records.values())[victim % len(app.records)]

    def redo():
        if record.dispatched_at is not None and not app.status.terminal:
            manager.dispatch_instance(app, record, "ws2")

    cluster.sim.schedule(at, redo)
    cluster.run()
    assert app.status is AppStatus.DONE
    return app, [
        (r.time, r.data["task"], r.data["rank"], r.data["host"],
         r.data["incarnation"], r.data["after"])
        for r in cluster.sim.log.records("runtime.dispatch")
    ]


@settings(max_examples=60, deadline=None)
@given(layered_runs(), st.integers(0, 50), st.sampled_from([0.25, 0.75, 1.25, 2.25, 3.75]))
def test_counters_dispatch_what_a_whole_graph_rescan_would(case, victim, at):
    app, counted = _dispatch_sequence(RuntimeManager, case, victim, at)
    _, rescanned = _dispatch_sequence(RescanManager, case, victim, at)
    assert counted == rescanned
    # every instance exactly once, but for the one re-dispatch
    assert len(counted) - len(app.records) in (0, 1)
    precedence = [a for a in app.graph.arcs if a.kind is not ArcKind.STREAM]
    roots = [n for n in app.graph if all(a.dst != n.name for a in precedence)]
    at_submit = [(task, rank) for time, task, rank, *_ in counted if time == 0.0]
    assert at_submit[:sum(n.instances for n in roots)] == [
        (n.name, rank) for n in roots for rank in range(n.instances)
    ]


@given(layered_runs(), st.randoms(use_true_random=False))
def test_done_taken_back_leaves_counters_where_they_were(case, rnd):
    """``commit_state`` DONE -> PENDING -> DONE (a done record re-dispatched
    and finished again) restores every counter, at any point of a run."""
    graph = _layered_graph(case)
    app = Application("app-0", graph)
    records = list(app.records.values())
    rnd.shuffle(records)
    released = []
    for i, record in enumerate(records):
        released += app.commit_state(record, InstanceState.DONE)
        victim = rnd.choice(records[: i + 1])
        before = (
            dict(app.precedence.remaining), dict(app.precedence.blocked), app._done_count
        )
        first = app.commit_state(victim, InstanceState.PENDING)
        assert first == () and not app.task_done(victim.task)
        again = app.commit_state(victim, InstanceState.DONE)
        assert before == (
            app.precedence.remaining, app.precedence.blocked, app._done_count
        )
        # it releases again exactly the successors nothing else holds back
        assert list(again) == [
            t for t in dict.fromkeys(graph.successors(victim.task))
            if app.task_done(victim.task)
            and all(app.task_done(p) for p in graph.predecessors(t))
        ]
    assert app.all_done
    assert not any(app.precedence.remaining.values())
    assert not any(app.precedence.blocked.values())
    # over the run every task with a predecessor was released exactly once
    assert sorted(released) == sorted(t.name for t in graph if graph.predecessors(t.name))


# ---------------------------------------------------------------- scheduler


def _bids(names):
    return [
        MachineBid(m, None, load, 1.0, MachineClass.WORKSTATION)
        for m, load in names
    ]


@st.composite
def assignment_problems(draw):
    n_machines = draw(st.integers(1, 8))
    machines = [f"m{i}" for i in range(n_machines)]
    bids = _bids(
        [(m, draw(st.floats(0, 0.79, allow_nan=False))) for m in machines]
    )
    n_tasks = draw(st.integers(1, 8))
    needs = []
    for t in range(n_tasks):
        candidates = draw(
            st.lists(st.sampled_from(machines), unique=True, min_size=1)
        )
        needs.append((f"task{t}", 0, candidates))
    return needs, bids


@given(assignment_problems())
@settings(suppress_health_check=[HealthCheck.too_slow])
def test_policies_produce_feasible_injective_assignments(problem):
    needs, bids = problem
    for policy in (
        load_sorted_assignment,
        greedy_assignment,
        utilization_first_assignment,
        round_robin_assignment,
        lambda n, b: random_assignment(n, b, random.Random(0)),
    ):
        out = policy(needs, bids)
        # feasibility: every assignment is among the instance's candidates
        candidates = {(t, r): set(c) for t, r, c in needs}
        for key, machine in out.items():
            assert machine in candidates[key]
        # injectivity: one instance per machine
        assert len(set(out.values())) == len(out)


@given(assignment_problems())
@settings(suppress_health_check=[HealthCheck.too_slow])
def test_assignments_are_maximal_matchings(problem):
    """Every policy yields a *maximal* matching: no unplaced instance could
    still be put on a free feasible machine."""
    needs, bids = problem
    for policy in (greedy_assignment, utilization_first_assignment, load_sorted_assignment):
        out = policy(needs, bids)
        free = {b.machine for b in bids} - set(out.values())
        for task, rank, candidates in needs:
            if (task, rank) not in out:
                assert not (set(candidates) & free), (
                    f"{policy.__name__} left ({task},{rank}) unplaced though "
                    f"{set(candidates) & free} was free"
                )


@given(
    st.lists(
        st.tuples(st.floats(0, 100, allow_nan=False), st.floats(0, 10, allow_nan=False)),
        min_size=1,
        max_size=12,
    ),
    st.floats(0.01, 5.0),
    st.floats(100, 1000),
)
def test_aging_queue_pop_order_matches_effective_priority(arrivals, rate, now):
    queue = AgingQueue(aging_rate=rate)
    for i, (enq, prio) in enumerate(arrivals):
        request = ResourceRequest(
            f"r{i}", "app", MachineClass.WORKSTATION,
            (ModuleNeed("t"),), None, priority=prio,
        )
        queue.push(request, enq)
    popped = []
    while queue:
        item = queue.pop(now)
        popped.append(item.effective_priority(now, rate))
    assert popped == sorted(popped, reverse=True)


@given(
    st.floats(0.01, 2.0),
    st.floats(0.1, 10.0),
    st.floats(0.1, 5.0),
)
def test_aging_queue_never_starves(rate, high_priority, dt):
    """§4.3 no-starvation: with aging_rate > 0 a zero-priority request is
    eventually popped even under a steady stream of fresh high-priority
    arrivals (one arrival + one pop per dt)."""
    queue = AgingQueue(aging_rate=rate)
    victim = ResourceRequest(
        "victim", "app", MachineClass.WORKSTATION, (ModuleNeed("t"),), None,
        priority=0.0,
    )
    queue.push(victim, 0.0)
    # fresh arrivals enqueued after t = high/rate lose to the aged victim,
    # so it must surface within ceil(high / (rate*dt)) + 2 service steps
    bound = int(high_priority / (rate * dt)) + 3
    assume(bound <= 2000)  # keep the worst case fast; the bound still holds
    now = 0.0
    for k in range(bound):
        now += dt
        fresh = ResourceRequest(
            f"fresh-{k}", "app", MachineClass.WORKSTATION, (ModuleNeed("t"),),
            None, priority=high_priority,
        )
        queue.push(fresh, now)
        item = queue.pop(now)
        if item.request.req_id == "victim":
            return
    pytest.fail(f"victim starved for {bound} service steps")


# ------------------------------------------------------------------- traces


@st.composite
def traced_logs(draw):
    """A synthetic trace-tagged event log: an app span plus nested task
    spans whose intervals are contained in their parents'."""
    from repro.util.eventlog import EventLog

    n = draw(st.integers(0, 6))
    root_start = draw(st.floats(0, 10, allow_nan=False))
    root_end = root_start + draw(st.floats(1, 100, allow_nan=False))
    spans = [("sp-0", None, root_start, root_end)]
    records = [
        (root_start, "app.submit", "app-0", {"trace_id": "tr", "span_id": "sp-0", "tasks": n}),
        (root_end, "app.done", "app-0", {"trace_id": "tr", "span_id": "sp-0"}),
    ]
    for i in range(1, n + 1):
        parent_id, _, ps, pe = spans[draw(st.integers(0, len(spans) - 1))]
        start = draw(st.floats(ps, pe, allow_nan=False))
        end = draw(st.floats(start, pe, allow_nan=False))
        spans.append((f"sp-{i}", parent_id, start, end))
        tag = {"trace_id": "tr", "span_id": f"sp-{i}", "parent_span_id": parent_id}
        records.append(
            (start, "runtime.dispatch", f"t{i}[0]",
             dict(tag, task=f"t{i}", rank=0, host="ws0", incarnation=0))
        )
        started = draw(st.floats(start, end, allow_nan=False))
        records.append((started, "task.start", f"t{i}[0]", dict(tag, host="ws0")))
        records.append((end, "task.done", f"t{i}[0]", dict(tag)))
    log = EventLog()
    for time, category, source, data in sorted(records, key=lambda r: r[0]):
        log.emit(time, category, source, **data)
    return log, spans


@given(traced_logs())
def test_span_trees_well_formed(case):
    """Assembled span trees: one root per trace, every span reachable
    exactly once (no cycles), child intervals contained in parents'."""
    from repro.trace import TraceAssembler

    log, spans = case
    traces = TraceAssembler(log).assemble()
    assert len(traces) == 1
    trace = traces[0]
    assert len(trace.roots) == 1
    assert len(trace.spans) == len(spans)
    walked = list(trace.root.tree())
    assert len(walked) == len(trace.spans)
    assert len({s.span_id for s in walked}) == len(walked)
    for span in walked:
        for child in span.children:
            assert child.start >= span.start - 1e-9
            assert child.end <= span.end + 1e-9


@given(traced_logs())
def test_critical_path_always_tiles_makespan(case):
    """For any well-formed trace the critical path is a contiguous tiling
    of [submit, done]: segment durations sum exactly to the makespan."""
    from repro.trace import TraceAssembler, critical_path

    log, _spans = case
    trace = TraceAssembler(log).assemble()[0]
    path = critical_path(trace)
    assert path is not None
    assert path.total == pytest.approx(path.makespan, rel=1e-9, abs=1e-9)
    cursor = path.start
    for seg in path.segments:
        assert seg.start == pytest.approx(cursor, abs=1e-9)
        assert seg.end >= seg.start - 1e-12
        cursor = seg.end
    assert cursor == pytest.approx(path.end, abs=1e-9)


# -------------------------------------------------------------- fault tolerance


@st.composite
def fault_schedules(draw):
    """Small random fault plans over a 4-workstation cluster: daemon
    bounces, drop windows, short partitions, latency spikes."""
    from repro.faults.schedule import FaultSchedule

    hosts = [f"ws{i}" for i in range(4)]
    schedule = FaultSchedule("prop")
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["bounce", "drop", "partition", "latency"]))
        time = draw(st.floats(0.5, 12.0, allow_nan=False))
        if kind == "bounce":
            schedule.bounce(
                time,
                draw(st.sampled_from(hosts)),
                down_for=draw(st.floats(2.0, 6.0, allow_nan=False)),
            )
        elif kind == "drop":
            schedule.drop_window(
                time,
                draw(st.floats(5.0, 30.0, allow_nan=False)),
                draw(st.floats(0.0, 0.15, allow_nan=False)),
            )
        elif kind == "partition":
            island = draw(
                st.lists(st.sampled_from(hosts), unique=True, min_size=1, max_size=2)
            )
            schedule.partition_window(
                time, draw(st.floats(1.0, 5.0, allow_nan=False)), island
            )
        else:
            schedule.latency_spike(
                time,
                draw(st.floats(2.0, 8.0, allow_nan=False)),
                draw(st.floats(1.0, 6.0, allow_nan=False)),
            )
    return schedule


@given(fault_schedules())
@settings(
    max_examples=6,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_allocation_epochs_unique_under_random_faults(schedule):
    """For *any* fault schedule, no (task, rank) is ever executed by two
    live instances under the same allocation epoch: every dispatch mints a
    fresh epoch, commits happen at most once per rank, and any stale exit
    is provably from a superseded epoch."""
    from repro.core import VCEConfig, VirtualComputingEnvironment, workstation_cluster
    from repro.migration.failover import FailoverConfig
    from repro.workloads import build_pipeline_graph

    config = VCEConfig(seed=1, failover=FailoverConfig())
    vce = VirtualComputingEnvironment(workstation_cluster(4), config).boot()
    vce.chaos(schedule)
    vce.submit(build_pipeline_graph(stages=2, stage_work=6.0, name="prop"))
    vce.run(until=vce.sim.now + 300.0)

    # (a) each dispatch of the same (app, task, rank) carries a fresh epoch
    epochs = {}
    for record in vce.sim.log.records(category="runtime.dispatch"):
        key = (record.source, record.get("task"), record.get("rank"))
        incarnation = record.get("incarnation")
        assert incarnation not in epochs.setdefault(key, set()), (
            f"{key} dispatched twice under epoch {incarnation}"
        )
        epochs[key].add(incarnation)
    # (b) at-most-once commit: no (task, rank) finishes twice
    done = {}
    for record in vce.sim.log.records(category="task.done"):
        key = (record.get("app"), record.get("task"), record.get("rank"))
        done[key] = done.get(key, 0) + 1
    assert all(n == 1 for n in done.values()), done
    # (c) every rejected commit really was from a superseded epoch
    for record in vce.sim.log.records(category="runtime.stale_commit"):
        assert record.get("epoch") != record.get("current")


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["push", "pop", "remove"]),
            st.integers(0, 15),
            st.floats(0, 5, allow_nan=False),
        ),
        max_size=60,
    ),
    st.floats(0.0, 2.0, allow_nan=False),
)
def test_aging_queue_never_loses_a_request(ops, rate):
    """Model-based conservation: under any interleaving of push / pop /
    remove the queue's contents always equal the model set — a queued
    request can only leave by being popped or explicitly removed."""
    queue = AgingQueue(aging_rate=rate)
    live = set()
    accepted = exited = 0
    now = 0.0
    for op, i, dt in ops:
        now += dt
        req_id = f"r{i}"
        if op == "push":
            request = ResourceRequest(
                req_id, "app", MachineClass.WORKSTATION,
                (ModuleNeed("t"),), None, priority=float(i),
            )
            queue.push(request, now)
            if req_id not in live:  # re-push of a queued id is idempotent
                accepted += 1
                live.add(req_id)
        elif op == "pop":
            item = queue.pop(now)
            assert (item is None) == (not live)
            if item is not None:
                assert item.request.req_id in live
                live.discard(item.request.req_id)
                exited += 1
        else:
            found = queue.remove(req_id)
            assert found == (req_id in live)
            if found:
                live.discard(req_id)
                exited += 1
        assert len(queue) == len(live)
    assert sorted(item.request.req_id for item in queue.items()) == sorted(live)
    assert accepted == exited + len(queue)


# --------------------------------------------------------------------- rng


@given(st.integers(0, 2**31), st.text(min_size=1, max_size=10))
def test_rng_streams_isolated(seed, name):
    """Drawing from one stream never perturbs another."""
    s1 = RngStreams(seed)
    s2 = RngStreams(seed)
    # consume heavily from an unrelated stream in s1 only
    for _ in range(100):
        s1.stream("noise").random()
    assert [s1.stream(name).random() for _ in range(5)] == [
        s2.stream(name).random() for _ in range(5)
    ]


# ------------------------------------------- change-driven cluster sampling
#
# The shipped sampler skips every grid point at which nothing it reads can
# have changed, and the watchdog wakes it by deadline. Against a poller that
# samples every grid point (tests/helpers_telemetry.py) that must be
# invisible: the same series change for change, the same health records.


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    layers=st.integers(2, 5),
    width=st.integers(2, 6),
    work=st.sampled_from([(0.5, 3.0), (2.0, 20.0), (20.0, 150.0)]),
    tail=st.sampled_from([0.0, 130.0]),
)
def test_sampler_matches_reference_poller_on_layered_dags(seed, layers, width, work, tail):
    from repro.core import VCEConfig, VirtualComputingEnvironment, workstation_cluster
    from repro.workloads import build_random_dag

    def scenario():
        graph = build_random_dag(
            layers=layers, width=width, seed=seed, min_work=work[0], max_work=work[1]
        )
        vce = VirtualComputingEnvironment(
            workstation_cluster(4, stochastic_load=(40.0, 15.0, 0.6), seed=seed),
            VCEConfig(seed=seed, telemetry_series_capacity=100_000),
        ).boot()
        run = vce.submit(graph, class_map={node.name: None for node in graph})
        vce.run_to_completion(run, timeout=100_000.0)
        vce.run(until=vce.sim.now + tail)
        return vce

    shipped, reference = assert_matches_reference(scenario)
    assert shipped.telemetry.sampler.ticks <= reference.telemetry.sampler.ticks


@pytest.mark.parametrize("seed", [3, 11, 29])
def test_sampler_matches_reference_poller_under_chaos_mix(seed):
    from repro.core import VCEConfig, VirtualComputingEnvironment, heterogeneous_cluster
    from repro.migration.failover import FailoverConfig
    from repro.workloads import WEATHER_SCRIPT, build_pipeline_graph, weather_programs

    def scenario():
        config = VCEConfig(seed=seed, failover=FailoverConfig())
        vce = VirtualComputingEnvironment(heterogeneous_cluster(), config).boot()
        vce.chaos("chaos-mix", seed=seed)
        runs = [
            vce.run_script(WEATHER_SCRIPT, weather_programs(), name="weather"),
            vce.submit(build_pipeline_graph(stages=4, stage_work=15.0, name="pipe")),
        ]
        for run in runs:
            vce.run_to_completion(run, timeout=2_000.0)
        vce.run(until=vce.sim.now + 300.0)  # heals, parks, goes quiet
        return vce

    shipped, _ = assert_matches_reference(scenario)
    assert health_records(shipped.sim.log)
    assert shipped.telemetry.sampler.idle_ticks > 0


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sampler_matches_reference_poller_on_a_tenant_soak(seed):
    from repro.soak import SoakConfig, run_soak

    def scenario():
        vce, driver, _ = run_soak(
            SoakConfig(
                tenants=4, apps=60, machines=8, fanout=2, seed=seed,
                instances=(2, 6), work=(0.5, 2.0), arrival_span=6.0,
                telemetry_interval=4.0, settle=15.0,
            )
        )
        assert driver.finished
        vce.run(until=vce.sim.now + 100.0)
        return vce

    assert_matches_reference(scenario)
