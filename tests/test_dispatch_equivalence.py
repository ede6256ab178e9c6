"""What a dispatch reads and what an exit leaves behind, checked against the
rules they implement.

- The stage-in delay of every dispatch equals the reference rule — the max
  of ``volume / bandwidth + base_latency`` over incoming DATA arcs with a
  positive volume whose producer has a record on another host — float for
  float, over random graphs, placements and a re-dispatch after a
  migration.
- Exits are routed by the identity an instance carries, through one bound
  method per manager: every route commits its record exactly once.
- A DONE or FAILED instance drops its finished generator and leaves its
  host; a KILLED one keeps its suspended generator, so the program's
  ``finally`` blocks do not run at the kill.
"""

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.migration import MigrationContext, RedundantExecutionManager
from repro.migration.failover import FailoverManager
from repro.netsim.network import LatencyModel, Message
from repro.netsim.process import SimProcess
from repro.runtime import Application, AppStatus, InstanceState, Placement, RuntimeManager
from repro.taskgraph import ArcKind, TaskGraph, TaskNode
from repro.vmpi import Compute

from tests.conftest import make_cluster, place_all_on

HOSTS = ["ws0", "ws1", "ws2"]


# ------------------------------------------------------------ stage-in rule


def reference_stage_in(latency, app, task, host_name):
    return max(
        (
            arc.volume / latency.bandwidth + latency.base_latency
            for arc in app.graph.arcs_into(task)
            if arc.kind is ArcKind.DATA
            and arc.volume > 0
            and any(
                r.host_name is not None and r.host_name != host_name
                for r in app.task_records(arc.src)
            )
        ),
        default=0.0,
    )


class ReferenceManager(RuntimeManager):
    """Notes the reference stage-in of every dispatch, computed from the
    state the dispatch sees."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.expected = []

    def dispatch_instance(self, app, record, host_name, restored_state=None):
        self.expected.append(
            reference_stage_in(self.network.latency, app, record.task, host_name)
        )
        return super().dispatch_instance(app, record, host_name, restored_state)


@st.composite
def staged_runs(draw):
    """A layered DAG mixing DATA, DEPENDENCY and STREAM arcs with random
    volumes (a non-DATA volume must not count), a random placement on three
    hosts, a random LAN, and one record re-dispatched onto a random host at
    a random time, as a migration does."""
    layers = [
        [f"l{i}n{j}" for j in range(draw(st.integers(1, 3)))]
        for i in range(draw(st.integers(2, 4)))
    ]
    names = [name for layer in layers for name in layer]
    instances = {name: draw(st.integers(1, 2)) for name in names}
    downward = [
        (a, b)
        for i, layer in enumerate(layers)
        for a in layer
        for lower in layers[i + 1:]
        for b in lower
    ]
    volumes = st.one_of(st.just(0), st.integers(1, 3_000_000))
    arcs = draw(st.lists(
        st.tuples(
            st.sampled_from(downward),
            st.sampled_from([ArcKind.DATA, ArcKind.DATA, ArcKind.DEPENDENCY]),
            volumes,
        ),
        max_size=14,
    ))
    streams = draw(st.lists(
        st.tuples(st.sampled_from(names), st.sampled_from(names), volumes).filter(
            lambda arc: arc[0] != arc[1]
        ),
        max_size=3,
    ))
    placement = {
        (name, rank): draw(st.sampled_from(HOSTS))
        for name in names
        for rank in range(instances[name])
    }
    latency = LatencyModel(
        base_latency=draw(st.floats(0.0, 0.01)),
        bandwidth=draw(st.sampled_from([1.25e6, 3.3e5, 7.0e7])),
    )
    migration = (
        draw(st.integers(0, 50)),
        draw(st.sampled_from(HOSTS)),
        draw(st.sampled_from([0.3, 1.1, 2.6, 4.2])),
    )
    return instances, arcs, streams, placement, latency, migration


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(staged_runs())
def test_stage_in_is_the_reference_rule(case):
    instances, arcs, streams, assignments, latency, (victim, target, at) = case

    def burst(ctx):
        yield Compute(1.0)

    graph = TaskGraph("staged")
    for name, count in instances.items():
        graph.add_task(TaskNode(name, instances=count, program=burst))
    for (src, dst), kind, volume in arcs:
        graph.connect(src, dst, kind, volume)
    for src, dst, volume in streams:
        graph.connect(src, dst, ArcKind.STREAM, volume)
    cluster = make_cluster(3)
    cluster.net.latency = latency
    manager = ReferenceManager(cluster.sim, cluster.net)
    app = manager.submit(graph, Placement(dict(assignments)))
    record = list(app.records.values())[victim % len(app.records)]

    def migrate():
        if record.dispatched_at is not None and not app.status.terminal:
            manager.dispatch_instance(app, record, target)

    cluster.sim.schedule(at, migrate)
    cluster.run()
    assert app.status is AppStatus.DONE
    got = [r.data["stage_in"] for r in cluster.sim.log.records("runtime.dispatch")]
    assert got == manager.expected


# -------------------------------------------------------------- exit routes


def job_graph(work=30.0):
    graph = TaskGraph("job-app")

    def program(ctx):
        yield Compute(work)
        return "ok"

    graph.add_task(TaskNode("job", program=program))
    return graph


@pytest.fixture
def done_commits(monkeypatch):
    """(task, rank) -> commits that made a record DONE."""
    commits = Counter()
    commit = Application.commit_state

    def counting(app, record, state):
        if state is InstanceState.DONE and record.state is not InstanceState.DONE:
            commits[record.key] += 1
        return commit(app, record, state)

    monkeypatch.setattr(Application, "commit_state", counting)
    return commits


def _submit(cluster, graph, host="ws0"):
    return cluster.manager.submit(graph, place_all_on(graph, host))


class TestExitRoutes:
    def test_primary(self, done_commits):
        cluster = make_cluster(1)
        app = _submit(cluster, job_graph())
        primary = app.record("job", 0).instance
        assert primary.on_exit is cluster.manager.on_instance_exit
        cluster.run()
        assert app.status is AppStatus.DONE
        assert app.record("job", 0).result == "ok"
        assert done_commits == {("job", 0): 1}

    def test_unpromoted_redundant_copy(self, done_commits):
        cluster = make_cluster(2)
        app = _submit(cluster, job_graph())
        redundancy = RedundantExecutionManager(MigrationContext(cluster.manager, cluster.net))
        cluster.run(until=1.0)
        record = app.record("job", 0)
        primary = record.instance
        (copy,) = redundancy.dispatch_redundant(app, record, ["ws1"])
        cluster.run()
        assert app.status is AppStatus.DONE
        assert record.instance is primary and primary.state is InstanceState.DONE
        assert copy.state is InstanceState.KILLED
        assert record.redundant_copies == []
        assert done_commits == {("job", 0): 1}

    def test_promoted_redundant_copy_that_finished_first(self, done_commits):
        cluster = make_cluster(2, speeds=[0.25, 1.0])
        app = _submit(cluster, job_graph())
        redundancy = RedundantExecutionManager(MigrationContext(cluster.manager, cluster.net))
        cluster.run(until=1.0)
        record = app.record("job", 0)
        primary = record.instance
        (copy,) = redundancy.dispatch_redundant(app, record, ["ws1"])
        cluster.run()
        assert app.status is AppStatus.DONE
        assert record.instance is copy and record.host_name == "ws1"
        assert primary.state is InstanceState.KILLED
        assert copy.on_exit is cluster.manager.on_instance_exit
        assert done_commits == {("job", 0): 1}

    def test_promoted_redundant_copy_that_finished_later(self, done_commits):
        cluster = make_cluster(2)
        app = _submit(cluster, job_graph())
        redundancy = RedundantExecutionManager(
            MigrationContext(cluster.manager, cluster.net)
        ).install()
        cluster.run(until=1.0)
        record = app.record("job", 0)
        (copy,) = redundancy.dispatch_redundant(app, record, ["ws1"])
        cluster.run(until=5.0)
        cluster.hosts["ws0"].crash()  # the primary fails; the copy is promoted
        assert record.instance is copy and copy.state is InstanceState.RUNNING
        cluster.run()
        assert app.status is AppStatus.DONE
        assert done_commits == {("job", 0): 1}

    def test_failover_redispatch(self, done_commits):
        cluster = make_cluster(2)
        app = _submit(cluster, job_graph())
        FailoverManager(MigrationContext(cluster.manager, cluster.net)).install()
        cluster.run(until=5.0)
        cluster.hosts["ws0"].crash()
        cluster.run()
        assert app.status is AppStatus.DONE
        record = app.record("job", 0)
        assert (record.host_name, record.epoch) == ("ws1", 1)
        assert done_commits == {("job", 0): 1}

    def test_stale_epoch_exit(self, done_commits):
        """No dispatch path lets an instance reach its record under an older
        epoch today, so the run stages one: the record's epoch moves on
        while its instance runs. That exit must not commit; the next
        incarnation's must, once."""
        cluster = make_cluster(2)
        app = _submit(cluster, job_graph(work=10.0))
        record = app.record("job", 0)
        cluster.run(until=1.0)
        record.epoch += 1  # allocated anew elsewhere
        cluster.run()
        assert [r.get("epoch") for r in cluster.sim.log.records("runtime.stale_commit")] == [0]
        assert done_commits == {}
        cluster.manager.dispatch_instance(app, record, "ws1")
        assert record.instance.allocation_epoch == 2
        cluster.run()
        assert app.status is AppStatus.DONE
        assert done_commits == {("job", 0): 1}


# ------------------------------------------------------- what an exit keeps


class TestWhatAnExitKeeps:
    def _one(self, cluster, program):
        graph = TaskGraph("one")
        graph.add_task(TaskNode("t", program=program))
        return _submit(cluster, graph).record("t", 0)

    def test_done_and_failed_drop_the_finished_generator(self):
        def fine(ctx):
            yield Compute(1.0)

        def broken(ctx):
            yield Compute(1.0)
            raise ValueError("boom")

        cluster = make_cluster(1)
        records = [self._one(cluster, fine), self._one(cluster, broken)]
        cluster.run()
        assert [r.instance.state for r in records] == [InstanceState.DONE, InstanceState.FAILED]
        assert [r.instance._gen for r in records] == [None, None]

    def test_killed_keeps_its_suspended_generator(self):
        closed = []

        def program(ctx):
            try:
                yield Compute(50.0)
            finally:
                closed.append(ctx.task)

        cluster = make_cluster(1)
        record = self._one(cluster, program)
        cluster.run(until=5.0)
        instance = record.instance
        instance.kill("test")
        assert instance.state is InstanceState.KILLED
        assert instance._gen is not None and instance._gen.gi_frame is not None
        assert closed == []  # the program's finally block has not run
        assert cluster.hosts["ws0"].process(instance.name) is None

    def test_finished_instances_leave_their_host(self, monkeypatch):
        """After a bid-placed run every workstation holds its daemon only:
        a late message to a finished instance is dropped, and a crash stops
        nothing but the daemon."""
        from repro.core import VCEConfig, VirtualComputingEnvironment, workstation_cluster
        from repro.workloads import build_random_dag

        vce = VirtualComputingEnvironment(workstation_cluster(6), VCEConfig(seed=3)).boot()
        run = vce.submit(build_random_dag(layers=3, width=2, seed=3, min_work=0.5, max_work=2.0))
        vce.run_to_completion(run, timeout=10_000.0)
        assert run.app.status is AppStatus.DONE
        hosts = vce.network.hosts
        for name in sorted(hosts):
            if name.startswith("ws"):
                assert [p.name for p in hosts[name].processes()] == ["vced"], name
        finished = next(iter(run.app.records.values())).instance
        late = Message(finished.address, finished.address, "late")
        assert finished.host.deliver(late) is False
        crashed = []
        stop = SimProcess._crashed

        def noting(process):
            crashed.append(process.name)
            stop(process)

        monkeypatch.setattr(SimProcess, "_crashed", noting)
        finished.host.crash()
        assert crashed == ["vced"]
