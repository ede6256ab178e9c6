"""Tests for the bidding scheduler: daemons, leaders, policies, queueing."""


from repro.machines import ConstantLoad, MachineClass
from repro.runtime import AppStatus
from repro.scheduler import (
    AgingQueue,
    DaemonConfig,
    ExecutionProgram,
    MachineBid,
    ModuleNeed,
    ResourceRequest,
    greedy_assignment,
    load_sorted_assignment,
    random_assignment,
    round_robin_assignment,
    utilization_first_assignment,
)
from repro.scheduler.execution_program import RunState
from repro.sdm import ProblemSpecification
from repro.taskgraph import ProblemClass
from repro.vmpi import Compute

from tests.helpers_sched import make_vce, workstation_farm, heterogeneous_site


def annotated_graph(name="app", tasks=(("t", 1, 2.0),)):
    spec = ProblemSpecification(name)
    for task, instances, work in tasks:
        spec.task(task, work=work, instances=instances)
    graph = spec.build()
    for node in graph:
        node.problem_class = ProblemClass.ASYNCHRONOUS
        node.language = "py"
        work = node.work

        def program(ctx, w=work):
            yield Compute(w)
            return f"{ctx.task}[{ctx.rank}]"

        node.program = program
    return graph


def launch(vce, graph, class_map=None, **kw):
    """Spawn an ExecutionProgram on the user host; returns its AppRun."""
    if class_map is None:
        class_map = {t.name: MachineClass.WORKSTATION for t in graph}
    done = []
    prog = ExecutionProgram(
        f"exec-{graph.name}",
        graph,
        class_map,
        vce.runtime,
        vce.directory,
        vce.db,
        on_finished=lambda run: done.append(run),
        **kw,
    )
    vce.user_host.spawn(prog)
    return prog.run_handle, done


class TestGroupFormation:
    def test_daemons_form_class_groups(self):
        vce = make_vce(heterogeneous_site())
        assert vce.directory.has_group(MachineClass.WORKSTATION)
        assert vce.directory.has_group(MachineClass.MIMD)
        assert vce.directory.has_group(MachineClass.SIMD)
        assert vce.directory.group_size(MachineClass.WORKSTATION) == 4
        assert vce.directory.group_size(MachineClass.MIMD) == 2

    def test_first_daemon_is_leader(self):
        vce = make_vce(workstation_farm(3))
        leader = vce.leader_of(MachineClass.WORKSTATION)
        assert leader.membership.is_coordinator


class TestBiddingBasics:
    def test_simple_allocation_and_run(self):
        vce = make_vce(workstation_farm(3))
        graph = annotated_graph()
        run, done = launch(vce, graph)
        vce.run(until=vce.sim.now + 60.0)
        assert done and run.state is RunState.DONE
        assert run.app.status is AppStatus.DONE
        assert run.allocation_latency is not None and run.allocation_latency < 5.0

    def test_least_loaded_machine_chosen(self):
        loads = [ConstantLoad(0.6), ConstantLoad(0.05), ConstantLoad(0.3)]
        vce = make_vce(workstation_farm(3, loads=loads))
        graph = annotated_graph()
        run, done = launch(vce, graph)
        vce.run(until=vce.sim.now + 60.0)
        assert run.placement.host_for("t", 0) == "ws1"

    def test_busy_daemons_decline_to_bid(self):
        loads = [ConstantLoad(0.95), ConstantLoad(0.95), ConstantLoad(0.0)]
        vce = make_vce(workstation_farm(3, loads=loads))
        graph = annotated_graph()
        run, done = launch(vce, graph)
        vce.run(until=vce.sim.now + 60.0)
        assert run.state is RunState.DONE
        assert run.placement.host_for("t", 0) == "ws2"
        declines = vce.sim.log.records(category="sched.decline")
        assert len(declines) >= 2

    def test_insufficient_resources_alloc_error(self):
        vce = make_vce(workstation_farm(2))
        graph = annotated_graph(tasks=(("t", 5, 1.0),))  # needs 5, only 2 machines
        run, done = launch(vce, graph)
        vce.run(until=vce.sim.now + 30.0)
        assert run.state is RunState.FAILED
        assert "allocation error" in run.error
        errors = vce.sim.log.records(category="sched.alloc_error")
        assert errors and errors[0].get("requested") == 5

    def test_no_group_for_class_fails(self):
        vce = make_vce(workstation_farm(2))
        graph = annotated_graph()
        run, done = launch(vce, graph, class_map={"t": MachineClass.SIMD})
        vce.run(until=vce.sim.now + 10.0)
        assert run.state is RunState.FAILED
        assert "no" in run.error and "group" in run.error

    def test_multi_instance_spread_across_machines(self):
        vce = make_vce(workstation_farm(4))
        graph = annotated_graph(tasks=(("t", 3, 1.0),))
        run, done = launch(vce, graph)
        vce.run(until=vce.sim.now + 60.0)
        assert run.state is RunState.DONE
        hosts = {run.placement.host_for("t", r) for r in range(3)}
        assert len(hosts) == 3  # one instance per machine

    def test_local_directive_runs_on_user_workstation(self):
        vce = make_vce(workstation_farm(2))
        graph = annotated_graph(tasks=(("remote", 1, 1.0), ("display", 1, 0.5)))
        run, done = launch(
            vce,
            graph,
            class_map={"remote": MachineClass.WORKSTATION, "display": None},
        )
        vce.run(until=vce.sim.now + 60.0)
        assert run.state is RunState.DONE
        assert run.placement.host_for("display", 0) == "user"
        assert run.placement.host_for("remote", 0) != "user"

    def test_heterogeneous_multigroup_allocation(self):
        vce = make_vce(heterogeneous_site())
        graph = annotated_graph(
            tasks=(("collector", 2, 1.0), ("predictor", 1, 5.0), ("display", 1, 0.2))
        )
        run, done = launch(
            vce,
            graph,
            class_map={
                "collector": MachineClass.WORKSTATION,
                "predictor": MachineClass.SIMD,
                "display": None,
            },
        )
        vce.run(until=vce.sim.now + 120.0)
        assert run.state is RunState.DONE
        assert run.placement.host_for("predictor", 0).startswith("simd")

    def test_a_finished_application_leaves_no_load(self):
        vce = make_vce(workstation_farm(3))
        graph = annotated_graph()
        run, done = launch(vce, graph)
        vce.run(until=vce.sim.now + 60.0)
        assert run.state is RunState.DONE
        machine = run.placement.host_for("t", 0)
        daemon = vce.daemon_on(machine)
        # the instance left its host's process table when it exited
        assert vce.runtime.instances_on(machine) == []
        assert daemon.current_load() == daemon.machine.load_at(vce.sim.now)

    def test_a_finished_task_leaves_no_load_while_its_application_runs(self):
        """A daemon bids what runs on its machine: the host of an
        application's finished task bids its background load only, though
        the application still runs elsewhere."""
        vce = make_vce(workstation_farm(2), daemon_config=DaemonConfig(per_instance_load=0.25))
        graph = annotated_graph(tasks=(("short", 1, 1.0), ("long", 1, 30.0)))
        run, done = launch(vce, graph)
        vce.run(until=vce.sim.now + 10.0)
        assert run.state is RunState.RUNNING
        short = vce.daemon_on(run.placement.host_for("short", 0))
        long = vce.daemon_on(run.placement.host_for("long", 0))
        assert short is not long
        now = vce.sim.now
        assert short.make_bid().load == short.machine.load_at(now)
        assert long.make_bid().load == long.machine.load_at(now) + 0.25

    def test_instance_range_uses_available_machines(self):
        vce = make_vce(workstation_farm(3))
        graph = annotated_graph(tasks=(("t", 1, 1.0),))
        run, done = launch(vce, graph, ranges={"t": (1, 5)})  # "ASYNC 5-"
        vce.run(until=vce.sim.now + 60.0)
        assert run.state is RunState.DONE
        # 3 machines available -> 3 instances chosen
        assert graph.task("t").instances == 3


class TestLeaderFailover:
    def test_request_succeeds_after_leader_crash(self):
        vce = make_vce(workstation_farm(4))
        leader = vce.leader_of(MachineClass.WORKSTATION)
        vce.net.host(leader.machine.name).crash()
        vce.run(until=vce.sim.now + 30.0)  # let takeover finish
        graph = annotated_graph()
        run, done = launch(vce, graph)
        vce.run(until=vce.sim.now + 60.0)
        assert run.state is RunState.DONE
        assert run.placement.host_for("t", 0) != leader.machine.name

    def test_stale_leader_request_forwarded(self):
        # Crash the leader *after* directory lookup by sending through a
        # non-leader daemon: daemon forwards to its coordinator.
        vce = make_vce(workstation_farm(3))
        leader = vce.leader_of(MachineClass.WORKSTATION)
        non_leader = next(
            d for d in vce.daemons.values() if d.address != leader.address
        )
        replies = []

        class Probe:
            pass

        # send a request directly to a non-leader; it must forward
        from repro.netsim import SimProcess

        class Requester(SimProcess):
            def on_start(self):
                req = ResourceRequest(
                    req_id="r1",
                    app="a",
                    machine_class=MachineClass.WORKSTATION,
                    modules=(ModuleNeed("t", 1, 1),),
                    reply_to=self.address,
                )
                self.send(non_leader.address, req, size=512)

            def on_message(self, src, payload):
                replies.append(payload)

        vce.user_host.spawn(Requester("req"))
        vce.run(until=vce.sim.now + 30.0)
        assert replies, "forwarded request never answered"

    def test_acting_coordinator_polls_the_live_members(self):
        """A takeover installs the successor's view at once: from the moment
        the successor coordinates, its crashed senior is out of the view, so
        the round it leads polls the live members itself, allocates from
        their bids and delegates nothing to the senior."""
        from repro.netsim import SimProcess
        from repro.scheduler.messages import AllocationReply

        vce = make_vce(workstation_farm(4))
        leader = vce.leader_of(MachineClass.WORKSTATION)
        members = leader.membership.view.members
        successor = next(d for d in vce.daemons.values() if d.address == members[1])
        vce.net.host(leader.machine.name).crash()
        vce.sim.run(
            until=vce.sim.now + 30.0,
            stop_when=lambda: successor.membership.is_coordinator,
        )
        assert (
            successor.membership.is_coordinator
            and successor.membership.view.members == members[1:]
        )
        replies = []

        class Requester(SimProcess):
            def on_message(self, src, payload):
                replies.append(payload)

        requester = Requester("req")
        vce.user_host.spawn(requester)
        request = ResourceRequest(
            "r1", "a", MachineClass.WORKSTATION, (ModuleNeed("t", 3, 3),),
            requester.address,
        )
        successor._on_resource_request(requester.address, request)
        vce.run(until=vce.sim.now + 10.0)
        (reply,) = replies
        assert isinstance(reply, AllocationReply)
        assert {bid.daemon for bid in reply.bids} == set(members[1:])
        (delegation,) = vce.sim.log.records(category="sched.delegate")
        assert delegation.get("sub_leader") == successor.machine.name


class TestQueueingAndAging:
    def test_queued_request_eventually_served(self):
        # one machine, one long-running app occupying it, second app queues
        vce = make_vce(
            workstation_farm(1),
            daemon_config=DaemonConfig(per_instance_load=0.9, retry_interval=1.0),
        )
        g1 = annotated_graph(name="first", tasks=(("t", 1, 20.0),))
        r1, d1 = launch(vce, g1)
        vce.run(until=vce.sim.now + 5.0)
        assert r1.state is RunState.RUNNING
        g2 = annotated_graph(name="second", tasks=(("t", 1, 1.0),))
        r2, d2 = launch(vce, g2, queue_if_insufficient=True)
        vce.run(until=vce.sim.now + 120.0)
        assert r1.state is RunState.DONE
        assert r2.state is RunState.DONE, f"queued app never ran: {r2.error}"
        assert vce.sim.log.records(category="sched.retry")

    def test_aging_queue_orders_by_effective_priority(self):
        q = AgingQueue(aging_rate=1.0)
        low = ResourceRequest("a", "app1", MachineClass.WORKSTATION, (), None, priority=0.0)
        high = ResourceRequest("b", "app2", MachineClass.WORKSTATION, (), None, priority=5.0)
        q.push(low, now=0.0)
        q.push(high, now=0.0)
        # immediately: high priority wins
        assert q.peek(now=0.1).request.req_id == "b"

    def test_aging_lets_old_low_priority_overtake(self):
        q = AgingQueue(aging_rate=1.0)
        q.push(ResourceRequest("old", "a", MachineClass.WORKSTATION, (), None, priority=0.0), now=0.0)
        q.push(ResourceRequest("new", "b", MachineClass.WORKSTATION, (), None, priority=5.0), now=10.0)
        # at t=20: old has prio 20, new has 15
        assert q.peek(now=20.0).request.req_id == "old"

    def test_no_aging_starves(self):
        q = AgingQueue(aging_rate=0.0)
        q.push(ResourceRequest("old", "a", MachineClass.WORKSTATION, (), None, priority=0.0), now=0.0)
        q.push(ResourceRequest("new", "b", MachineClass.WORKSTATION, (), None, priority=5.0), now=1000.0)
        assert q.peek(now=10_000.0).request.req_id == "new"

    def test_queue_remove_and_wait_times(self):
        q = AgingQueue()
        q.push(ResourceRequest("x", "a", MachineClass.WORKSTATION, (), None), now=0.0)
        assert q.wait_times(now=4.0) == [4.0]
        assert q.remove("x") and not q.remove("x")
        assert len(q) == 0


def bids(*specs):
    """specs: (machine, load) or (machine, load, speed)."""
    return [
        MachineBid(m, None, l, (s[0] if s else 1.0), MachineClass.WORKSTATION)
        for m, l, *s in specs
    ]


class TestPolicies:
    def test_load_sorted_prefers_least_loaded(self):
        needs = [("t", 0, ["a", "b", "c"])]
        out = load_sorted_assignment(needs, bids(("a", 0.5), ("b", 0.1), ("c", 0.3)))
        assert out[("t", 0)] == "b"

    def test_load_sorted_tie_breaks_by_speed(self):
        needs = [("t", 0, ["a", "b"])]
        out = load_sorted_assignment(needs, bids(("a", 0.2, 1.0), ("b", 0.2, 4.0)))
        assert out[("t", 0)] == "b"

    def test_greedy_can_strand_constrained_task(self):
        # the §4.3 machine-A scenario: flexible task first takes machine A
        needs = [
            ("flexible", 0, ["A", "B"]),  # runs fastest on A
            ("constrained", 0, ["A"]),  # can ONLY run on A
        ]
        out = greedy_assignment(needs, bids(("A", 0.0), ("B", 0.0)))
        assert out[("flexible", 0)] == "A"
        assert ("constrained", 0) not in out  # stranded!

    def test_utilization_first_serves_constrained_task(self):
        needs = [
            ("flexible", 0, ["A", "B"]),
            ("constrained", 0, ["A"]),
        ]
        out = utilization_first_assignment(needs, bids(("A", 0.0), ("B", 0.0)))
        assert out[("constrained", 0)] == "A"
        assert out[("flexible", 0)] == "B"

    def test_utilization_first_makes_flexible_wait_if_needed(self):
        # only machine A exists: the flexible task must wait (unassigned)
        needs = [
            ("flexible", 0, ["A"]),
            ("constrained", 0, ["A"]),
        ]
        out = utilization_first_assignment(needs, bids(("A", 0.0)))
        assert out == {("constrained", 0): "A"}

    def test_random_assignment_deterministic_with_rng(self):
        import random

        needs = [("t", r, ["a", "b", "c"]) for r in range(2)]
        b = bids(("a", 0.0), ("b", 0.0), ("c", 0.0))
        o1 = random_assignment(needs, b, random.Random(3))
        o2 = random_assignment(needs, b, random.Random(3))
        assert o1 == o2

    def test_round_robin_cycles(self):
        needs = [("t", r, ["a", "b", "c"]) for r in range(3)]
        out = round_robin_assignment(needs, bids(("a", 0.0), ("b", 0.0), ("c", 0.0)))
        assert set(out.values()) == {"a", "b", "c"}

    def test_policies_respect_feasibility(self):
        needs = [("t", 0, ["b"])]
        b = bids(("a", 0.0), ("b", 0.9))
        for policy in (
            load_sorted_assignment,
            greedy_assignment,
            utilization_first_assignment,
            round_robin_assignment,
        ):
            assert policy(needs, b) == {("t", 0): "b"}, policy.__name__


class TestAllocationRetry:
    def test_leader_crash_mid_allocation_retried(self):
        """The leader dies after receiving the request but before replying;
        the execution program re-sends the request to the successor when
        the directory's leader changes."""
        vce = make_vce(workstation_farm(4))
        leader = vce.leader_of(MachineClass.WORKSTATION)
        # crash the leader while the request is on the wire / mid-bidding,
        # before any AllocationReply can leave it
        graph = annotated_graph()
        run, done = launch(vce, graph)
        vce.sim.schedule(0.002, lambda: vce.net.host(leader.machine.name).crash())
        vce.run(until=vce.sim.now + 120.0)
        assert run.state is RunState.DONE, run.error
        assert run.placement.host_for("t", 0) != leader.machine.name
        (sent,) = vce.sim.log.records(category="exec.request")
        successor = vce.leader_of(MachineClass.WORKSTATION)
        assert successor is not leader
        rounds = [
            r for r in vce.sim.log.records(category="sched.request")
            if r.data["req_id"] == sent.data["req_id"]
        ]
        (resent,) = [r for r in rounds if r.source == str(successor.address)]
        # before the program's own timeout could have retransmitted it
        assert resent.time < sent.time + ExecutionProgram.REQUEST_TIMEOUT
