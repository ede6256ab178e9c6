"""Performance *contracts* for the kernel and scheduler hot paths.

These tests pin the algorithmic properties the perf pass bought —
instrumentation-based, never wall-clock, so they are immune to CI noise:

- ``Simulator.pending`` is O(1): it must not iterate the heap.
- Cancel-heavy churn cannot grow the heap without bound: tombstones are
  compacted once they dominate.
- ``AgingQueue`` index operations (push/contains/remove/reprioritize/
  peek/pop) never take a linear pass over the queued items.
- Kernel pop order is the (time, seq) total order and ``pending`` always
  equals the brute-force live-entry count — property-tested over random
  interleavings of schedule/schedule_at/call_soon/cancel.
- Precedence costs O(arcs) per run: a completion walks its successors once
  and never asks for a successor's predecessors.
- One task instance costs what varies per instance: a dispatch copies no
  arc or predecessor list, and an exited instance leaves at most 17
  collector-tracked objects behind.
- ``RuntimeManager.instances_on`` reads the host's process table and
  visits no application record, and a failover re-dispatch ranks its
  candidate hosts without reading any application's in-flight records.
- The observers cost nothing when nothing changed: an idle cluster with
  one instance in flight is sampled at the keep-alive rate only, and the
  watchdog resolves no metric label on a tick with no new in-flight record.
- One application message costs what varies per message: a bounded number
  of Python frames, one probe of the receive ports, no ``frozenset`` for an
  empty route table, no copy of the receive ports at dispatch, and one
  payload dict per log record.
"""

import gc
import sys

from hypothesis import given, settings, strategies as st

from repro.channels.channel import Channel
from repro.machines import MachineClass, MachineDatabase
from repro.netsim import network as network_module
from repro.netsim.kernel import Simulator
from repro.netsim.network import Network
from repro.netsim.process import SimProcess
from repro.runtime import AppStatus, RuntimeManager
from repro.scheduler.messages import ResourceRequest
from repro.scheduler.queue import AgingQueue
from repro.taskgraph import ArcKind, TaskGraph, TaskNode
from repro.telemetry.registry import MetricsRegistry
from repro.util.eventlog import LogRecord
from repro.vmpi import Compute, Recv, Send

from tests.conftest import make_cluster, place_all_on, round_robin_placement
from tests.helpers_sched import wire_machines, workstation_farm


class _CountingHeap(list):
    """A heap list that counts full iterations (len() stays free)."""

    def __init__(self, *args):
        super().__init__(*args)
        self.iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


class TestKernelContracts:
    def test_pending_is_o1(self):
        """``pending`` must come from counters, not a heap scan."""
        sim = Simulator(0)
        timers = [sim.schedule(float(i % 7) + 0.5, lambda: None) for i in range(500)]
        for timer in timers[::3]:
            timer.cancel()
        probe = _CountingHeap(sim._heap)
        sim._heap = probe
        live = 500 - len(timers[::3])
        for _ in range(200):
            assert sim.pending == live
        assert probe.iterations == 0, "pending iterated the heap"

    def test_cancel_churn_keeps_heap_bounded(self):
        """Retry-timer churn (schedule then cancel, repeatedly) must not
        accumulate tombstones past the compaction threshold."""
        sim = Simulator(0)
        keep = [sim.schedule(1e6 + i, lambda: None) for i in range(10)]
        for _ in range(200):
            batch = [sim.schedule(100.0 + i, lambda: None) for i in range(50)]
            for timer in batch:
                timer.cancel()
        assert sim.pending == len(keep)
        assert sim.compactions > 0
        # heap may hold up to ~half tombstones between compactions, never
        # the 10k cancelled entries this loop produced
        assert len(sim._heap) <= 2 * len(keep) + 128
        sim.run(until=50.0)
        assert sim.pending == len(keep)

    def test_cancelling_fired_timer_is_inert(self):
        """A cancel after firing must not corrupt the live-event counter
        (which would make run() stop early or spin)."""
        sim = Simulator(0)
        fired = []
        timer = sim.schedule(1.0, lambda: fired.append(1))
        anchor = sim.schedule(5.0, lambda: fired.append(2))
        sim.run(until=2.0)
        assert fired == [1]
        timer.cancel()  # already fired: must be a no-op
        assert sim.pending == 1
        sim.run()
        assert fired == [1, 2]


def _request(req_id: str, priority: float = 0.0) -> ResourceRequest:
    return ResourceRequest(
        req_id=req_id,
        app=f"app-{req_id}",
        machine_class=None,
        modules=(),
        reply_to=None,
        priority=priority,
    )


class TestAgingQueueContracts:
    def test_index_operations_take_no_linear_pass(self):
        """push/contains/remove/reprioritize/peek/pop on a populated queue
        must not visit the other queued items (``stats['item_visits']``
        counts elements touched by linear passes)."""
        queue = AgingQueue(aging_rate=0.1)
        for i in range(300):
            queue.push(_request(f"r{i}", priority=float(i % 11)), now=float(i))
        queue.stats["item_visits"] = 0
        for i in range(0, 300, 7):
            assert f"r{i}" in queue
        queue.push(_request("r3"), now=5.0)  # duplicate: O(1) no-op
        queue.remove("r7")
        queue.reprioritize("r11", 99.0)
        assert queue.peek(now=500.0) is not None
        popped = queue.pop(now=500.0)
        assert popped.request.req_id == "r11"
        assert queue.stats["item_visits"] == 0, (
            "an index operation rescanned the queue"
        )

    def test_items_snapshot_is_the_linear_pass(self):
        queue = AgingQueue()
        for i in range(10):
            queue.push(_request(f"r{i}"), now=float(i))
        queue.stats["item_visits"] = 0
        assert len(queue.items()) == 10
        assert queue.stats["item_visits"] == 10

    def test_remove_churn_keeps_heap_bounded(self):
        """Coordinator-side churn (push + satisfied-elsewhere removals)
        must compact stale heap entries instead of accumulating them."""
        queue = AgingQueue()
        for round_ in range(100):
            for i in range(20):
                queue.push(_request(f"r{round_}.{i}"), now=float(round_))
            for i in range(20):
                queue.remove(f"r{round_}.{i}")
        assert len(queue) == 0
        assert queue.stats["compactions"] > 0
        assert len(queue._heap) <= 64

    def test_aged_order_survives_rate_change(self):
        """Setting ``aging_rate`` re-keys the heap; order must follow the
        new rate immediately."""
        queue = AgingQueue(aging_rate=0.0)
        queue.push(_request("old", priority=0.0), now=0.0)
        queue.push(_request("vip", priority=5.0), now=100.0)
        assert queue.peek(now=100.0).request.req_id == "vip"
        queue.aging_rate = 1.0  # now the old request's age dominates
        assert queue.peek(now=100.0).request.req_id == "old"


# --------------------------------------------------------- property tests

_OPS = st.lists(
    st.tuples(
        st.sampled_from(["schedule", "schedule_at", "call_soon", "cancel", "cancel_fired"]),
        st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
        st.integers(min_value=0, max_value=500),
    ),
    min_size=1,
    max_size=60,
)


def _burst(ctx):
    yield Compute(1.0)


def _bipartite(k: int) -> TaskGraph:
    """Two layers of *k* tasks, every upper task a predecessor of every
    lower one: k*k arcs, the dense case."""
    graph = TaskGraph(f"bipartite-{k}")
    for layer in "ab":
        for i in range(k):
            graph.add_task(TaskNode(f"{layer}{i}", program=_burst))
    for i in range(k):
        for j in range(k):
            graph.connect(f"a{i}", f"b{j}")
    return graph


class TestPrecedenceContracts:
    def _adjacency_use(self, k, monkeypatch):
        """Submit and run the bipartite graph; per neighbourhood query,
        [calls, names handed out]. ``predecessors`` counts the copying query
        alone; ``successors`` counts it and the uncopied view together."""
        use = {"predecessors": [0, 0], "successors": [0, 0]}
        queries = {
            "predecessors": ("predecessors",),
            "successors": ("successors", "successor_view"),
        }
        for kind, names in queries.items():
            tally = use[kind]
            for name in names:
                original = getattr(TaskGraph, name)

                def counting(graph, task, _original=original, _tally=tally):
                    out = _original(graph, task)
                    _tally[0] += 1
                    _tally[1] += len(out)
                    return out

                monkeypatch.setattr(TaskGraph, name, counting)
        cluster = make_cluster(4)
        graph = _bipartite(k)
        app = cluster.manager.submit(
            graph, round_robin_placement(graph, ["ws0", "ws1", "ws2", "ws3"])
        )
        cluster.run()
        assert app.status is AppStatus.DONE
        assert len(cluster.sim.log.records("runtime.dispatch")) == 2 * k
        return use

    def test_a_run_walks_each_arc_once(self, monkeypatch):
        """Releasing successors costs one visit per arc over the whole run
        (plus one query per task), and ``predecessors`` hands out one name
        per arc: it is read once, to count. The ``after`` spans of a
        dispatch record read the uncopied view. A completion that rescans
        its successors' predecessors reads k per arc instead."""
        k = 20
        arcs, tasks = k * k, 2 * k
        use = self._adjacency_use(k, monkeypatch)
        assert use["successors"][0] + use["successors"][1] <= arcs + tasks
        assert use["predecessors"][1] <= arcs

    def test_predecessor_queries_grow_with_tasks_not_arcs(self, monkeypatch):
        small = self._adjacency_use(20, monkeypatch)["predecessors"][0]
        monkeypatch.undo()
        large = self._adjacency_use(40, monkeypatch)["predecessors"][0]
        assert large <= 2 * small, (small, large)


class TestDispatchContracts:
    """What one task instance costs (ROADMAP 6(a))."""

    def test_a_dispatch_copies_no_adjacency(self, monkeypatch):
        """Neither a dispatch from submit or completion nor a re-dispatch
        copies an arc list or a predecessor list: ``after``, the stage-in
        delay and the channels read the graph's own adjacency."""
        copies = []
        depth = [0]
        for name in ("arcs_from", "arcs_into", "predecessors"):
            original = getattr(TaskGraph, name)

            def counting(graph, task, _name=name, _original=original):
                if depth[0]:
                    copies.append(_name)
                return _original(graph, task)

            monkeypatch.setattr(TaskGraph, name, counting)
        dispatch = RuntimeManager.dispatch_instance

        def dispatching(*args, **kwargs):
            depth[0] += 1
            try:
                return dispatch(*args, **kwargs)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(RuntimeManager, "dispatch_instance", dispatching)

        graph = TaskGraph("every-arc-kind")
        graph.add_task(TaskNode("src", instances=2, program=_burst))
        for name in ("mid", "sink"):
            graph.add_task(TaskNode(name, program=_burst))
        graph.connect("src", "mid", ArcKind.DATA, volume=50_000)
        graph.connect("src", "sink")
        graph.connect("mid", "sink", ArcKind.DATA, volume=10_000)
        graph.connect("mid", "sink", ArcKind.STREAM)
        cluster = make_cluster(3)
        app = cluster.manager.submit(
            graph, round_robin_placement(graph, ["ws0", "ws1", "ws2"])
        )
        cluster.run(until=0.5)
        cluster.manager.dispatch_instance(app, app.record("src", 1), "ws0")
        cluster.run()
        assert app.status is AppStatus.DONE
        dispatches = cluster.sim.log.records("runtime.dispatch")
        assert len(dispatches) == 5
        assert any(r.get("stage_in") > 0 for r in dispatches)
        assert copies == []

    def test_an_exited_instance_leaves_little_for_the_collector(self):
        """Collector-tracked objects still alive per finished instance of a
        ~500-instance random DAG, as the ``gc.get_objects()`` delta across
        a full collection: 23 before exits dropped the finished generator,
        the per-instance exit closure and the host entry (15.1 after; the
        bound is that plus one)."""
        from repro.core import VCEConfig, VirtualComputingEnvironment, workstation_cluster
        from repro.workloads import build_random_dag

        def retained_per_instance(layers):
            graph = build_random_dag(
                layers=layers, width=80, seed=3, min_work=0.002, max_work=0.02
            )
            vce = VirtualComputingEnvironment(workstation_cluster(4), VCEConfig(seed=3)).boot()
            gc.collect()
            before = len(gc.get_objects())
            run = vce.submit(graph, class_map=dict.fromkeys(node.name for node in graph))
            vce.run_to_completion(run, timeout=1_000_000.0)
            assert run.app.status is AppStatus.DONE
            gc.collect()
            return (len(gc.get_objects()) - before) / len(run.app.records)

        retained_per_instance(2)  # lazy imports and caches are not per instance
        assert retained_per_instance(12) <= 16.1


class TestInstancesOnContract:
    def test_finished_application_is_never_visited(self):
        """``instances_on`` (the host book the balancer and a failover
        re-dispatch read) must cost what live work costs, not history."""

        class Untouchable(dict):
            def _refuse(self, *args):
                raise AssertionError("a finished application's records were visited")

            __iter__ = keys = values = items = _refuse

        cluster = make_cluster(2)
        manager = cluster.manager
        old = TaskGraph("old")
        old.add_task(TaskNode("t", instances=3, program=_burst))
        finished = manager.submit(old, place_all_on(old, "ws0"))
        cluster.run()
        assert finished.status is AppStatus.DONE

        def long_burst(ctx):
            yield Compute(50.0)

        live = TaskGraph("live")
        live.add_task(TaskNode("first", instances=3, program=long_burst))
        live.add_task(TaskNode("later", program=_burst))
        live.connect("first", "later")
        app = manager.submit(live, round_robin_placement(live, ["ws0", "ws1"]))
        cluster.run(until=cluster.sim.now + 5.0)
        expected = {
            host: sorted(
                r.instance.name
                for a in manager.apps.values()
                for r in a.records.values()
                if r.instance is not None
                and not r.instance.state.terminal
                and r.instance.host.name == host
            )
            for host in ("ws0", "ws1")
        }
        assert sum(map(len, expected.values())) == 3  # "later" is not dispatched
        finished.records = Untouchable(finished.records)
        for host, names in expected.items():
            assert sorted(i.name for i in manager.instances_on(host)) == names
        cluster.run()
        assert app.status is AppStatus.DONE
        assert manager.instances_on("ws0") == manager.instances_on("ws1") == []

    def test_redispatch_reads_no_application_records(self):
        """Ranking the candidate hosts of a failover re-dispatch reads each
        host's process table, not any application's in-flight records."""
        from repro.migration import MigrationContext
        from repro.migration.failover import FailoverManager

        class CountingInflight(dict):
            scans = 0

            def _count(method):
                def counted(self, *args):
                    self.scans += 1
                    return method(self, *args)

                return counted

            __iter__ = _count(dict.__iter__)
            keys = _count(dict.keys)
            values = _count(dict.values)
            items = _count(dict.items)

        def long_burst(ctx):
            yield Compute(50.0)

        hosts = [f"ws{i}" for i in range(6)]
        cluster = make_cluster(len(hosts))
        manager = cluster.manager
        failover = FailoverManager(MigrationContext(manager, cluster.net)).install()
        apps = []
        for name in ("a", "b", "c"):
            graph = TaskGraph(name)
            graph.add_task(TaskNode("t", instances=len(hosts), program=long_burst))
            apps.append(manager.submit(graph, round_robin_placement(graph, hosts)))
        cluster.run(until=5.0)
        for app in apps:
            app.inflight = CountingInflight(app.inflight)

        picks = []
        pick_host = failover._pick_host

        def counting_pick_host(app, record):
            before = [a.inflight.scans for a in apps]
            target = pick_host(app, record)
            picks.append([a.inflight.scans - b for a, b in zip(apps, before)])
            return target

        failover._pick_host = counting_pick_host
        cluster.hosts["ws0"].crash()  # strands one instance of each application
        cluster.run()
        assert failover.redispatches == len(apps)
        assert picks == [[0] * len(apps)] * len(apps), (
            "a re-dispatch read an application's in-flight records"
        )
        assert all(app.status is AppStatus.DONE for app in apps)


class TestObserverContracts:
    def _one_long_instance(self):
        from repro.core import VCEConfig, VirtualComputingEnvironment, workstation_cluster

        def long_haul(ctx):
            yield Compute(100_000.0)

        graph = TaskGraph("long-haul")
        graph.add_task(TaskNode("haul", language="py", program=long_haul))
        vce = VirtualComputingEnvironment(workstation_cluster(4), VCEConfig(seed=1)).boot()
        vce.submit(graph, class_map={"haul": None})
        vce.run(until=vce.sim.now + 20.0)  # dispatched, computing
        app = next(iter(vce.runtime.apps.values()))
        assert len(app.inflight) == 1
        return vce

    def test_idle_seconds_cost_keepalives_not_polls(self):
        """1,000 idle simulated seconds cost no kernel event at all: the
        sampler's grid points are read off the clock, and at most one per
        KEEPALIVE_TICKS of them takes a sample."""
        from repro.telemetry.sampler import KEEPALIVE_TICKS

        vce = self._one_long_instance()
        sampler = vce.telemetry.sampler
        samples, events = sampler.ticks, vce.sim.events_processed
        grid_points = sampler.ticks + sampler.idle_ticks
        vce.run(until=vce.sim.now + 1000.0)
        assert vce.sim.events_processed == events
        assert sampler.ticks + sampler.idle_ticks - grid_points == 1000 / sampler.interval
        assert sampler.ticks - samples <= 1000 / (sampler.interval * KEEPALIVE_TICKS) + 2

    def test_watchdog_resolves_no_label_for_a_known_record(self, monkeypatch):
        """The straggler baseline of an in-flight record is the histogram
        child resolved at its dispatch, not a label lookup per tick."""
        from repro.telemetry.registry import MetricFamily

        vce = self._one_long_instance()
        calls = []
        original = MetricFamily.labels

        def counting(family, *values):
            calls.append(family.name)
            return original(family, *values)

        monkeypatch.setattr(MetricFamily, "labels", counting)
        vce.telemetry.watchdog.evaluate(vce.sim.now, vce.telemetry.store)
        assert calls == []


class _CountingPorts(dict):
    """A receive-port table that counts how it is read."""

    def __init__(self, *args):
        super().__init__(*args)
        self.probes = 0
        self.walks = 0

    def get(self, *args):
        self.probes += 1
        return super().get(*args)

    def __getitem__(self, key):
        self.probes += 1
        return super().__getitem__(key)

    def __contains__(self, key):
        self.probes += 1
        return super().__contains__(key)

    def _walk(self, how):
        self.walks += 1
        return how()

    def __iter__(self):
        return self._walk(super().__iter__)

    def keys(self):
        return self._walk(super().keys)

    def values(self):
        return self._walk(super().values)

    def items(self):
        return self._walk(super().items)


class TestMessageContracts:
    """What one application message may cost (ROADMAP 6(b)). The workload is
    a two-rank ping-pong on two hosts with telemetry on, traced like every
    application the runtime manager submits."""

    def _ping_pong(self, round_trips):
        def program(ctx):
            other = 1 - ctx.rank
            for _ in range(round_trips):
                if ctx.rank == 0:
                    yield Send(dst=other, data=1.0, tag="ping", size=16)
                    yield Recv(src=other, tag="pong")
                else:
                    yield Recv(src=other, tag="ping")
                    yield Send(dst=other, data=2.0, tag="pong", size=16)

        sim = Simulator(0)
        sim.telemetry = MetricsRegistry()
        net = Network(sim)
        wire_machines(net, MachineDatabase(), workstation_farm(2))
        manager = RuntimeManager(sim, net)
        graph = TaskGraph("ping-pong")
        graph.add_task(TaskNode("t", instances=2, program=program))
        app = manager.submit(graph, round_robin_placement(graph, ["ws0", "ws1"]))
        return sim, net, manager, app

    def _frames(self, round_trips):
        """Python frames entered while the application runs."""
        sim, net, _, app = self._ping_pong(round_trips)
        frames = 0

        def count(frame, event, arg):
            nonlocal frames
            if event == "call":
                frames += 1

        sys.setprofile(count)
        try:
            sim.run()
        finally:
            sys.setprofile(None)
        assert app.status is AppStatus.DONE
        assert net.messages_delivered == 2 * round_trips
        return frames

    def test_frames_per_message_are_bounded(self):
        """Frames per delivered message, as the difference between a run of
        200 messages and a run of none (dispatch and exit cancel out): 32.1
        here; 54.1 before the data plane resolved its wiring once (82.6 on
        the 8-rank stencil, which also computes between exchanges)."""
        per_message = (self._frames(100) - self._frames(0)) / 200
        assert per_message <= 38, per_message

    def test_empty_route_table_builds_no_frozenset(self, monkeypatch):
        built = []

        def counting(pair):
            built.append(pair)
            return frozenset(pair)

        monkeypatch.setattr(network_module, "frozenset", counting, raising=False)
        sim, net, _, app = self._ping_pong(20)
        sim.run()
        assert app.status is AppStatus.DONE and net.messages_sent == 40
        assert built == []
        # the probe does see a route lookup once an override exists
        net.set_route("ws0", "ws1", net.latency)
        assert net.latency_between("ws1", "ws0") is net.latency
        assert len(built) == 2

    def test_dispatch_and_directed_send_copy_no_receive_ports(self, monkeypatch):
        """Binding a rank's receive port tests membership, and a directed
        send with no interposer probes the port table exactly once."""
        copies = []
        original = Channel.receive_ports

        def counting(channel):
            copies.append(channel.name)
            return original.fget(channel)

        monkeypatch.setattr(Channel, "receive_ports", property(counting))
        sim, _, manager, app = self._ping_pong(20)
        assert copies == []  # both ranks dispatched (and bound) at submit
        channel = next(iter(manager.channels._channels.values()))
        ports = channel._receivers = _CountingPorts(channel._receivers)
        sim.run()
        assert app.status is AppStatus.DONE and channel.messages == 40
        assert copies == []
        assert (ports.probes, ports.walks) == (40, 0)

    def test_no_payload_dict_per_record(self):
        """A handle emit passes its payload positionally down the tracer's
        seam ``Simulator.emit``: the only dicts on the way are the empty
        keyword containers of the two ``emit`` signatures, and the record
        keeps none.  A keyword emit's dict is read once and dropped: the
        record holds its values."""
        sim = Simulator(0)
        process = SimProcess("p")
        Network(sim).add_host("h").spawn(process)
        sim.run()
        handle = sim.log.category("contract.typed", ("a", "b"))
        seen = {}

        def grab(frame, event, arg):
            if event == "call" and frame.f_code.co_name in ("emit", "append", "write"):
                owner = type(frame.f_locals.get("self")).__name__
                seen[owner, frame.f_code.co_name] = [
                    value for value in frame.f_locals.values() if isinstance(value, dict)
                ]

        def traced(*args, **kwargs):
            seen.clear()
            sys.setprofile(grab)
            try:
                process.emit(*args, **kwargs)
            finally:
                sys.setprofile(None)

        traced(handle, 1, [2])
        assert set(seen) == {("SimProcess", "emit"), ("Simulator", "emit"), ("EventLog", "write")}
        assert [d for dicts in seen.values() for d in dicts] == [{}, {}]
        typed = sim.log.last("contract.typed")
        assert not any(isinstance(value, dict) for value in typed)
        assert typed == LogRecord(0.0, "contract.typed", "h/p", {"a": 1, "b": [2]})

        traced("contract.probe", a=1, b=[2])
        assert set(seen) == {("SimProcess", "emit"), ("Simulator", "emit"), ("EventLog", "append")}
        payload = seen["Simulator", "emit"][0]
        record = sim.log.last("contract.probe")
        assert not any(isinstance(value, dict) for value in record)
        assert record.data == payload == {"a": 1, "b": [2]}
        assert record.get("b") is payload["b"]  # values are kept, not copied
        # the public keyword form stores the same thing
        sim.log.emit(sim.now, "contract.probe", "h/p", a=1, b=[2])
        assert sim.log.last("contract.probe") == record
        assert sim.log.count("contract.probe") == 2


class TestEventLogContracts:
    def test_a_stored_record_retains_at_most_240_bytes(self):
        """Bytes a short stencil_halo-shaped run (8 ranks x 64 cells,
        bid-allocated) leaves allocated, per log record it stored: 458
        while a record kept its payload dict, an int position in a list and
        a fresh destination-rank string per send; 185 as one flat tuple
        with an ``array`` position."""
        import tracemalloc

        from repro.core import VCEConfig, VirtualComputingEnvironment, workstation_cluster
        from repro.workloads import build_stencil_graph

        graph = build_stencil_graph(ranks=8, cells=64, iterations=100)
        vce = VirtualComputingEnvironment(workstation_cluster(8), VCEConfig(seed=1)).boot()
        gc.collect()
        stored = len(vce.sim.log)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            run = vce.submit(graph, class_map={"grid": MachineClass.WORKSTATION})
            vce.run_to_completion(run, timeout=1_000_000.0)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert run.app.status is AppStatus.DONE
        stored = len(vce.sim.log) - stored
        assert stored > 2000
        assert retained / stored <= 240


class TestKernelProperties:
    @settings(deadline=None, max_examples=120)
    @given(ops=_OPS)
    def test_pop_order_and_pending_count(self, ops):
        """Under arbitrary interleavings of the scheduling API the kernel
        must (a) report ``pending`` equal to the brute-force count of live
        unfired entries and (b) fire callbacks in exact (time, seq) order."""
        sim = Simulator(0)
        timers = []
        fired: list[tuple[float, int]] = []

        def make_cb(timer):
            return lambda: fired.append((timer.time, timer.seq))

        for op, delay, index in ops:
            if op == "schedule":
                timer = sim.schedule(delay, lambda: None)
                timer.callback = make_cb(timer)
                timers.append(timer)
            elif op == "schedule_at":
                timer = sim.schedule_at(delay, lambda: None)
                timer.callback = make_cb(timer)
                timers.append(timer)
            elif op == "call_soon":
                timer = sim.call_soon(lambda: None)
                timer.callback = make_cb(timer)
                timers.append(timer)
            elif op == "cancel" and timers:
                timers[index % len(timers)].cancel()
            elif op == "cancel_fired" and timers:
                # cancel twice: double-cancel must also be inert
                timer = timers[index % len(timers)]
                timer.cancel()
                timer.cancel()
            brute = sum(
                1 for _, _, e in sim._heap if not e.cancelled and not e.fired
            )
            assert sim.pending == brute

        expected = sorted((t.time, t.seq) for t in timers if not t.cancelled)
        sim.run()
        assert fired == expected
        assert sim.pending == 0
