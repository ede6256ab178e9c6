"""Queued requests survive group-leader crashes without a replicated queue.

Only the coordinator holds the aging queue. What makes a queued request
outlive its leader is the execution program: it keeps every request it is
still waiting on, watches the directory, and re-sends them to each new
leader. A request ages from the moment its program issued it, so its age
needs no replica either.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machines import MachineClass
from repro.netsim import SimProcess
from repro.scheduler import DaemonConfig, SetPriority
from repro.scheduler.execution_program import ExecutionProgram, RunState

from tests.helpers_sched import make_vce, workstation_farm
from tests.test_scheduler import annotated_graph, launch


def saturated_vce(n=3, seed=17, blocker_work=None):
    """A VCE whose single-machine-per-job capacity keeps requests queued;
    with *blocker_work*, every machine is then occupied by one blocker."""
    vce = make_vce(
        workstation_farm(n),
        seed=seed,
        daemon_config=DaemonConfig(per_instance_load=0.9, retry_interval=1.0),
    )
    if blocker_work is not None:
        for i in range(n):
            launch(vce, annotated_graph(name=f"blk{i}", tasks=(("t", 1, blocker_work),)))
            vce.run(until=vce.sim.now + 3.0)
    return vce


def launch_queued(vce, name):
    return launch(
        vce, annotated_graph(name=name, tasks=(("t", 1, 2.0),)),
        queue_if_insufficient=True,
    )


def crash_leader(vce):
    leader = vce.leader_of(MachineClass.WORKSTATION)
    vce.net.host(leader.machine.name).crash()
    return leader


def holders(vce):
    return [d for d in vce.daemons.values() if d.alive and d.pending_queue]


def queued_item(daemon):
    (item,) = daemon.pending_queue.items()
    return item


@pytest.fixture
def no_client_retries(monkeypatch):
    """Silence the programs' own retransmission, so the re-send on a leader
    change alone must carry a queued request."""
    monkeypatch.setattr(ExecutionProgram, "MAX_REQUEST_RETRIES", 0)


class TestQueueReplication:
    def test_only_the_coordinator_holds_the_queue(self):
        vce = saturated_vce(blocker_work=60.0)
        launch_queued(vce, "queued")
        vce.run(until=vce.sim.now + 10.0)
        assert holders(vce) == [vce.leader_of(MachineClass.WORKSTATION)]

    def test_queued_request_served_after_leader_crash(self, no_client_retries):
        """The crux: the execution program's request is parked in the
        leader's queue when the leader dies; the program re-sends it to the
        successor, which serves it."""
        vce = saturated_vce(blocker_work=40.0)
        run, _ = launch_queued(vce, "queued")
        vce.run(until=vce.sim.now + 5.0)
        assert run.state is RunState.ALLOCATING  # parked in the queue
        crash_leader(vce)
        vce.run(until=vce.sim.now + 200.0)
        assert run.state is RunState.DONE, run.error
        assert len(vce.sim.log.records(category="exec.reply")) == 4  # 3 blockers + 1

    def test_queued_request_served_after_two_leader_crashes(self, no_client_retries):
        vce = saturated_vce(n=4, blocker_work=40.0)
        run, _ = launch_queued(vce, "queued")
        vce.run(until=vce.sim.now + 5.0)
        first = crash_leader(vce)
        vce.run(until=vce.sim.now + 15.0)
        successor = vce.leader_of(MachineClass.WORKSTATION)
        assert successor is not first
        assert run.state is RunState.ALLOCATING
        assert holders(vce) == [successor]  # re-learnt from the program
        crash_leader(vce)
        vce.run(until=vce.sim.now + 200.0)
        assert vce.leader_of(MachineClass.WORKSTATION) not in (first, successor)
        assert run.state is RunState.DONE, run.error

    def test_queue_entry_removed_everywhere_after_service(self):
        vce = saturated_vce()
        launch(vce, annotated_graph(name="blk", tasks=(("t", 1, 15.0),)))
        vce.run(until=vce.sim.now + 3.0)
        run, _ = launch_queued(vce, "queued")
        vce.run(until=vce.sim.now + 120.0)
        assert run.state is RunState.DONE
        assert holders(vce) == []

    def test_aging_preserved_across_takeover(self):
        """A request ages from when its program issued it, at every leader
        it passes through: the successor queues it with the same
        ``enqueued_at``, the request's ``issued_at``."""
        vce = saturated_vce(blocker_work=300.0)
        launch_queued(vce, "queued")
        vce.run(until=vce.sim.now + 5.0)
        (issued,) = [
            r for r in vce.sim.log.records(category="exec.request")
            if r.source == "user/exec-queued"
        ]
        leader = vce.leader_of(MachineClass.WORKSTATION)
        item = queued_item(leader)
        assert item.enqueued_at == item.request.issued_at == issued.time
        crash_leader(vce)
        vce.run(until=vce.sim.now + 40.0)
        (successor,) = holders(vce)
        assert successor is not leader
        assert queued_item(successor).enqueued_at == issued.time


def set_priority(vce, leader, req_id, priority):
    class User(SimProcess):
        def on_start(self):
            self.send(leader.address, SetPriority(req_id, priority), size=64)

    vce.user_host.spawn(User("authorized-user"))


class TestRuntimePriorityChange:
    """§4.3: "Authorized users will be able to modify the priorities of
    particular applications" — applied to queued requests at runtime."""

    def test_reprioritized_request_overtakes_queue(self):
        vce = saturated_vce(blocker_work=30.0)
        # two queued apps: "first" then "second" (equal priority, FIFO-aged)
        r1, _ = launch_queued(vce, "first")
        vce.run(until=vce.sim.now + 2.0)
        r2, _ = launch_queued(vce, "second")
        vce.run(until=vce.sim.now + 2.0)
        leader = vce.leader_of(MachineClass.WORKSTATION)
        assert len(leader.pending_queue) == 2
        # the user escalates the *second* (younger) app's queued request
        items = sorted(leader.pending_queue.items(), key=lambda q: q.enqueued_at)
        set_priority(vce, leader, items[-1].request.req_id, 100.0)
        vce.run(until=vce.sim.now + 300.0)
        assert r1.state is RunState.DONE and r2.state is RunState.DONE
        # the escalated request was served first
        assert r2.completed_at < r1.completed_at
        assert vce.sim.log.records(category="sched.reprioritized")

    def test_set_priority_survives_leader_change(self, no_client_retries):
        """The leader forwards an applied ``SetPriority`` to the requester,
        so the request it re-sends to the successor has the new priority."""
        vce = saturated_vce(blocker_work=200.0)
        launch_queued(vce, "q")
        vce.run(until=vce.sim.now + 3.0)
        leader = vce.leader_of(MachineClass.WORKSTATION)
        set_priority(vce, leader, queued_item(leader).request.req_id, 42.0)
        vce.run(until=vce.sim.now + 5.0)
        assert queued_item(leader).request.priority == 42.0
        crash_leader(vce)
        vce.run(until=vce.sim.now + 40.0)
        (successor,) = holders(vce)
        assert successor is not leader
        assert queued_item(successor).request.priority == 42.0


@settings(max_examples=25, deadline=None)
@given(requests=st.integers(1, 4), crash_at=st.floats(0.0, 12.0))
def test_every_queued_request_is_served_once_across_a_leader_crash(requests, crash_at):
    """1–4 queued requests, and the leader crashes at a drawn moment while
    they arrive, bid and queue: each program gets exactly one reply and no
    run fails. (The blockers outlast the crash, so no queued request is yet
    running on the leader when it dies.)"""
    vce = saturated_vce(n=4, blocker_work=60.0)
    vce.sim.schedule(crash_at, lambda: crash_leader(vce))
    runs = []
    for i in range(requests):
        runs.append(launch_queued(vce, f"q{i}")[0])
        vce.run(until=vce.sim.now + 1.0)
    vce.run(until=vce.sim.now + 400.0)
    for run in runs:
        assert run.state is RunState.DONE, run.error
    replies = [
        r for r in vce.sim.log.records(category="exec.reply")
        if r.source.startswith("user/exec-q")
    ]
    assert sorted(r.source for r in replies) == sorted({r.source for r in replies})
    assert len(replies) == requests
