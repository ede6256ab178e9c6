"""Cross-backend conformance suite for the ``SimBackend`` contract.

Two tiers, matching the two halves of the determinism contract
(docs/NETWORK.md):

- **Kernel-order tier** (``backend`` fixture, the virtual-time engine —
  ``serial`` — only): exact ``(time, seq)`` pop order, FIFO ``call_soon``,
  lazy/idempotent cancel, accurate ``pending``, the daemon-run rule —
  what makes replay digests reproducible.  The ``network`` backend paces
  by the wall clock and deliberately does not promise this order.
- **Behavior tier** (``behavior_backend`` fixture, *every* backend
  including ``network``, marked ``network`` so CI can select it): the
  same workload must produce the same task outcomes — DONE set, per-task
  results digest — a protocol-FSM-clean event log, and exactly-once
  completion under a daemon crash, whether the daemons are simulated
  processes or real ``SIGKILL``-able OS processes.

The pop-order / pending-count Hypothesis property is the black-box port of
the white-box property in ``test_perf_contract.py``.  Operations carry
``host=`` tags throughout: the tag must never affect ordering, and an
attached happens-before tracker records it (asserted below).
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.netsim.backend import BACKEND_NAMES, create_simulator
from repro.util.errors import ConfigurationError, SimulationError

#: host names the tests tag events with
HOSTS = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot"]


def make_sim(backend: str, seed: int = 0):
    return create_simulator(seed, backend=backend)


@pytest.fixture(params=["serial"])
def backend(request):
    """The virtual-time engine: exact (time, seq) order is its contract.
    The ``network`` backend is covered by the behavior tier below
    instead."""
    return request.param


def test_unknown_backend_rejected():
    with pytest.raises(SimulationError, match="unknown simulation backend"):
        create_simulator(0, backend="quantum")


def test_removed_backend_rejected_by_config():
    """There is one virtual-time engine; asking the environment for the
    deleted second one is a configuration error, not a silent fallback."""
    from repro.core import VCEConfig, VirtualComputingEnvironment, workstation_cluster

    assert BACKEND_NAMES == ("serial", "network")
    with pytest.raises(
        ConfigurationError,
        match="unknown simulation backend 'sharded'.*expected one of serial, network",
    ):
        VirtualComputingEnvironment(
            workstation_cluster(2), VCEConfig(backend="sharded")
        )


def test_host_tag_reaches_attached_tracker(backend):
    """Why ``host=`` survives on the scheduling calls: an attached
    happens-before tracker records it per scheduled event."""
    from repro.analysis.hb import HBTracker

    sim = make_sim(backend)
    sim.hb = tracker = HBTracker()
    before = len(tracker._node_hosts)
    sim.schedule(1.0, lambda: None, host="alpha")
    sim.schedule_at(2.0, lambda: None, host="bravo")
    sim.call_soon(lambda: None)
    assert tracker._node_hosts[before:] == ["alpha", "bravo", None]


class TestPopOrder:
    def test_fires_in_time_then_seq_order(self, backend):
        sim = make_sim(backend)
        fired = []
        for i, (delay, host) in enumerate(
            [(3.0, "alpha"), (1.0, "bravo"), (2.0, None), (1.0, "charlie")]
        ):
            sim.schedule(delay, lambda i=i: fired.append(i), host=host)
        sim.run()
        assert fired == [1, 3, 2, 0]  # by (time, seq)
        assert sim.now == 3.0

    def test_same_timestamp_batch_drains_in_schedule_order(self, backend):
        """All entries at one timestamp fire in scheduling (seq) order even
        when they belong to different hosts."""
        sim = make_sim(backend)
        fired = []
        for i, host in enumerate(HOSTS * 3):
            sim.schedule_at(5.0, lambda i=i: fired.append(i), host=host)
        sim.run()
        assert fired == list(range(len(HOSTS) * 3))

    def test_callback_scheduling_preserves_global_order(self, backend):
        """Events scheduled from inside callbacks — including onto *other*
        hosts at times before already-queued work — still fire in global
        (time, seq) order."""
        sim = make_sim(backend)
        fired = []

        def first():
            fired.append("first")
            # earlier than the queued 10.0 event, on a different host
            sim.schedule_at(4.0, lambda: fired.append("cross"), host="bravo")
            sim.call_soon(lambda: fired.append("soon"), host="charlie")

        sim.schedule_at(2.0, first, host="alpha")
        sim.schedule_at(10.0, lambda: fired.append("last"), host="delta")
        sim.run()
        assert fired == ["first", "soon", "cross", "last"]

    def test_step_pops_single_events_in_order(self, backend):
        sim = make_sim(backend)
        fired = []
        sim.schedule(2.0, lambda: fired.append("b"), host="bravo")
        sim.schedule(1.0, lambda: fired.append("a"), host="alpha")
        assert sim.step() is True
        assert fired == ["a"] and sim.now == 1.0
        assert sim.step() is True
        assert fired == ["a", "b"] and sim.now == 2.0
        assert sim.step() is False

    def test_schedule_in_past_rejected(self, backend):
        sim = make_sim(backend)
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError, match="before now"):
            sim.schedule_at(0.5, lambda: None)
        with pytest.raises(SimulationError, match="negative delay"):
            sim.schedule(-1.0, lambda: None)


class TestCallSoonFifo:
    def test_call_soon_is_fifo(self, backend):
        sim = make_sim(backend)
        fired = []
        for i, host in enumerate(["alpha", "bravo", None, "charlie", "alpha"]):
            sim.call_soon(lambda i=i: fired.append(i), host=host)
        sim.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_call_soon_runs_after_queued_events_at_now(self, backend):
        """A call_soon issued mid-callback lands *behind* events already
        queued at the current timestamp (seq order)."""
        sim = make_sim(backend)
        fired = []
        sim.schedule_at(1.0, lambda: fired.append("q1"), host="alpha")
        sim.schedule_at(
            1.0,
            lambda: (
                fired.append("q2"),
                sim.call_soon(lambda: fired.append("soon"), host="bravo"),
            ),
            host="bravo",
        )
        sim.schedule_at(1.0, lambda: fired.append("q3"), host="charlie")
        sim.run()
        assert fired == ["q1", "q2", "q3", "soon"]


class TestCancelSemantics:
    def test_cancel_prevents_firing_and_updates_pending(self, backend):
        sim = make_sim(backend)
        fired = []
        keep = sim.schedule(1.0, lambda: fired.append("keep"), host="alpha")
        drop = sim.schedule(2.0, lambda: fired.append("drop"), host="bravo")
        assert sim.pending == 2
        drop.cancel()
        assert drop.cancelled is True
        assert sim.pending == 1
        sim.run()
        assert fired == ["keep"]
        assert keep.cancelled is False

    def test_cancel_is_idempotent(self, backend):
        sim = make_sim(backend)
        anchor = sim.schedule(5.0, lambda: None, host="alpha")
        timer = sim.schedule(1.0, lambda: None, host="bravo")
        timer.cancel()
        timer.cancel()  # double-cancel must not double-count
        assert sim.pending == 1
        sim.run()
        assert sim.now == 5.0
        assert anchor.cancelled is False

    def test_cancel_after_fired_is_inert(self, backend):
        sim = make_sim(backend)
        fired = []
        timer = sim.schedule(1.0, lambda: fired.append(1), host="alpha")
        sim.schedule(5.0, lambda: fired.append(2), host="bravo")
        sim.run(until=2.0)
        assert fired == [1]
        timer.cancel()  # already fired: no-op, counters untouched
        assert sim.pending == 1
        sim.run()
        assert fired == [1, 2]

    def test_cancel_after_full_drain_is_terminal_noop(self, backend):
        """Cancelling a fired timer after run() has fully drained the heap
        must leave ``pending`` at 0 and the next run healthy."""
        sim = make_sim(backend)
        timers = [
            sim.schedule(float(i % 3), lambda: None, host=HOSTS[i % len(HOSTS)])
            for i in range(12)
        ]
        sim.run()
        assert sim.pending == 0
        for timer in timers:
            timer.cancel()
        assert sim.pending == 0
        fired = []
        sim.schedule(1.0, lambda: fired.append(1), host="alpha")
        sim.run()
        assert fired == [1]

    def test_backend_cancel_method(self, backend):
        sim = make_sim(backend)
        timer = sim.schedule(1.0, lambda: None, host="alpha")
        sim.cancel(timer)  # interface-level sugar for timer.cancel()
        assert timer.cancelled is True
        assert sim.pending == 0

    def test_tombstone_churn_keeps_heaps_bounded(self, backend):
        """Schedule-then-cancel churn must compact tombstones, not
        accumulate them (the perf contract, through the public seam)."""
        sim = make_sim(backend)
        keep = [
            sim.schedule(1e6 + i, lambda: None, host=HOSTS[i % len(HOSTS)])
            for i in range(10)
        ]
        for round_ in range(200):
            batch = [
                sim.schedule(100.0 + i, lambda: None, host=HOSTS[(round_ + i) % len(HOSTS)])
                for i in range(50)
            ]
            for timer in batch:
                timer.cancel()
        assert sim.pending == len(keep)
        assert sim.compactions > 0


class TestRunSemantics:
    def test_daemon_events_do_not_keep_run_alive(self, backend):
        sim = make_sim(backend)
        fired = []

        def heartbeat():
            fired.append("beat")
            sim.schedule(1.0, heartbeat, daemon=True, host="alpha")

        sim.schedule(1.0, heartbeat, daemon=True, host="alpha")
        sim.schedule(3.5, lambda: fired.append("work"), host="bravo")
        sim.run()
        # stops at the last non-daemon event, not the endless heartbeat
        assert fired == ["beat", "beat", "beat", "work"]
        assert sim.now == 3.5

    def test_run_until_advances_clock_to_deadline(self, backend):
        sim = make_sim(backend)
        fired = []
        sim.schedule(1.0, lambda: fired.append(1), host="alpha")
        sim.schedule(9.0, lambda: fired.append(2), host="bravo")
        assert sim.run(until=5.0) == 5.0
        assert fired == [1] and sim.now == 5.0
        sim.run()
        assert fired == [1, 2]

    def test_stop_when_halts_after_current_event(self, backend):
        sim = make_sim(backend)
        fired = []
        for i in range(6):
            sim.schedule(float(i), lambda i=i: fired.append(i), host=HOSTS[i])
        sim.run(stop_when=lambda: len(fired) >= 3)
        assert fired == [0, 1, 2]
        assert sim.pending == 3

    def test_max_events_raises(self, backend):
        sim = make_sim(backend)

        def spin():
            sim.call_soon(spin, host="alpha")

        sim.call_soon(spin, host="alpha")
        with pytest.raises(SimulationError, match="max_events"):
            sim.run(max_events=100)

    def test_reentrant_run_rejected(self, backend):
        sim = make_sim(backend)
        errors = []

        def reenter():
            try:
                sim.run()
            except SimulationError as err:
                errors.append(str(err))

        sim.schedule(1.0, reenter, host="alpha")
        sim.run()
        assert errors and "re-entrant" in errors[0]


class TestClockObserver:
    """``observe_grid``: grid points read off the clock, not the heap (the
    telemetry sampler's seam, on the ``serial`` kernel only)."""

    @staticmethod
    def observe(sim, seen, first=1.0, interval=1.0, stop_after=None):
        """Record ``(time, events so far)`` at each grid point."""

        def point():
            seen.append((sim.now, sim.events_processed))
            if stop_after is not None and len(seen) >= stop_after:
                return float("inf")
            return sim.now + interval

        sim.observe_grid(first, point, host="alpha")

    def test_grid_point_at_a_tie_runs_before_the_events_at_its_time(self, backend):
        sim = make_sim(backend)
        order = []
        sim.schedule(1.0, lambda: order.append("before"), host="bravo")
        sim.schedule(2.0, lambda: order.append("tie"), host="bravo")  # queued first
        sim.observe_grid(2.0, lambda: order.append(("grid", sim.now)) or float("inf"))
        sim.run()
        assert order == ["before", ("grid", 2.0), "tie"]

    def test_run_until_catches_up_inclusively(self, backend):
        sim = make_sim(backend)
        seen = []
        self.observe(sim, seen)
        sim.schedule(1.5, lambda: None, host="bravo")
        assert sim.run(until=4.0) == 4.0
        assert seen == [(1.0, 0), (2.0, 1), (3.0, 1), (4.0, 1)]
        sim.run(until=4.0)  # nothing more is due
        assert len(seen) == 4

    def test_stop_when_leaves_later_grid_points_to_the_next_run(self, backend):
        sim = make_sim(backend)
        seen, fired = [], []
        self.observe(sim, seen)
        for t in (0.5, 2.5, 4.5):
            sim.schedule(t, lambda t=t: fired.append(t), host="bravo")
        sim.run(stop_when=lambda: len(fired) >= 2)
        assert fired == [0.5, 2.5] and sim.now == 2.5
        assert [t for t, _ in seen] == [1.0, 2.0]
        sim.run()
        assert [t for t, _ in seen] == [1.0, 2.0, 3.0, 4.0]

    def test_step_catches_up(self, backend):
        sim = make_sim(backend)
        seen = []
        self.observe(sim, seen)
        sim.schedule(2.5, lambda: None, host="bravo")
        assert sim.step()
        assert seen == [(1.0, 0), (2.0, 0)] and sim.now == 2.5
        assert not sim.step()
        assert len(seen) == 2  # an empty queue has no time to catch up to

    def test_grid_points_are_not_events(self, backend):
        """With or without an observer, the same events run, and the grid
        never keeps ``run()`` alive."""
        counts = []
        for observing in (False, True):
            sim = make_sim(backend)
            seen = []
            if observing:
                self.observe(sim, seen, interval=0.25)
            for i in range(5):
                sim.schedule(float(i) + 0.1, lambda: None, host=HOSTS[i])
            sim.run()
            counts.append((sim.events_processed, sim.pending, sim.now))
            assert len(seen) == (13 if observing else 0)
        assert counts[0] == counts[1] == (5, 0, 4.1)

    def test_one_slot(self, backend):
        sim = make_sim(backend)
        seen = []
        self.observe(sim, seen, stop_after=2)
        with pytest.raises(SimulationError, match="already installed"):
            sim.observe_grid(5.0, lambda: float("inf"))
        sim.run(until=10.0)
        assert len(seen) == 2  # returning inf stopped it and freed the slot
        self.observe(sim, seen, first=11.0)
        sim.run(until=12.0)
        assert [t for t, _ in seen] == [1.0, 2.0, 11.0, 12.0]
        with pytest.raises(SimulationError, match="before now"):
            make_sim(backend).observe_grid(-1.0, lambda: float("inf"))

    def test_next_grid_point_must_be_later(self, backend):
        sim = make_sim(backend)
        sim.observe_grid(1.0, lambda: sim.now)
        with pytest.raises(SimulationError, match="must be later"):
            sim.run(until=2.0)

    def test_each_grid_point_is_a_tracker_node_chained_to_the_last(self, backend):
        from repro.analysis.hb import HBTracker

        sim = make_sim(backend)
        sim.hb = tracker = HBTracker()
        nodes = []

        def point():
            nodes.append(tracker.current_node)
            return sim.now + 1.0

        sim.schedule(0.5, lambda: sim.observe_grid(1.0, point, host="alpha"))
        sim.schedule(2.5, lambda: nodes.append(tracker.current_node), host="bravo")
        sim.run(until=3.0)
        first, second, event, third = nodes
        registering = tracker._parents[first]
        assert tracker._node_hosts[first] == "alpha" and registering != 0
        assert tracker._parents[second] == first and tracker._parents[third] == second
        assert not tracker.ordered(event, third)  # the grid is its own chain


# --------------------------------------------------------- property tests

_OPS = st.lists(
    st.tuples(
        st.sampled_from(["schedule", "schedule_at", "call_soon", "cancel", "cancel_twice"]),
        st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
        st.integers(min_value=0, max_value=500),
        st.sampled_from([None] + HOSTS),
    ),
    min_size=1,
    max_size=60,
)


class TestConformanceProperties:
    # the `backend` fixture is a plain string parameter, not mutable
    # state, so sharing it across generated examples is sound
    @settings(
        deadline=None,
        max_examples=60,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(ops=_OPS)
    def test_pop_order_and_pending_count(self, backend, ops):
        """Under arbitrary interleavings of the scheduling API — with events
        tagged onto arbitrary hosts — the kernel must (a) report
        ``pending`` equal to the count of live unfired entries and (b) fire
        callbacks in exact (time, seq) order."""
        sim = make_sim(backend)
        timers = []
        fired: list[tuple[float, int]] = []

        def make_cb(timer):
            return lambda: fired.append((timer.time, timer.seq))

        for op, delay, index, host in ops:
            if op == "schedule":
                timer = sim.schedule(delay, lambda: None, host=host)
                timer.callback = make_cb(timer)
                timers.append(timer)
            elif op == "schedule_at":
                timer = sim.schedule_at(delay, lambda: None, host=host)
                timer.callback = make_cb(timer)
                timers.append(timer)
            elif op == "call_soon":
                timer = sim.call_soon(lambda: None, host=host)
                timer.callback = make_cb(timer)
                timers.append(timer)
            elif op == "cancel" and timers:
                timers[index % len(timers)].cancel()
            elif op == "cancel_twice" and timers:
                timer = timers[index % len(timers)]
                timer.cancel()
                timer.cancel()
            live = sum(1 for t in timers if not t.cancelled and not t.fired)
            assert sim.pending == live

        expected = sorted((t.time, t.seq) for t in timers if not t.cancelled)
        sim.run()
        assert fired == expected
        assert sim.pending == 0


# ---------------------------------------------- scheduler-level conformance
#
# The SimBackend contract above makes replay digests reproducible for raw
# event scheduling; the tests below assert the same contract one layer up,
# through the whole scheduler: hierarchical group leaders (leader_fanout)
# must not perturb the event schedule at fanout 1 (the degenerate flat case)
# and must replay byte-identically at any fanout.


def _run_fan_apps(fanout: int, hb_sanitizer: bool = False):
    """Boot a 9-workstation VCE and run three fan-of-instances apps to
    completion; returns the VCE (digest, log, daemons all inspectable)."""
    from repro.core import VCEConfig, VirtualComputingEnvironment, workstation_cluster
    from repro.machines import MachineClass
    from repro.scheduler.daemon import DaemonConfig
    from repro.scheduler.execution_program import RunState
    from repro.sdm import ProblemSpecification
    from repro.taskgraph import ProblemClass
    from repro.vmpi.api import Compute

    vce = VirtualComputingEnvironment(
        workstation_cluster(9),
        VCEConfig(
            seed=7,
            hb_sanitizer=hb_sanitizer,
            daemon=DaemonConfig(leader_fanout=fanout),
            settle_time=20.0,
        ),
    ).boot()
    runs = []
    for i, k in enumerate((6, 4, 8)):
        spec = ProblemSpecification(f"fan{i}")
        spec.task("work", work=10.0 + i, instances=k)
        graph = spec.build()
        node = graph.task("work")
        node.problem_class = ProblemClass.ASYNCHRONOUS
        node.language = "py"

        def program(ctx, _w=10.0 + i):
            yield Compute(_w)
            return _w

        node.program = program
        runs.append(
            vce.submit(
                graph,
                class_map={"work": MachineClass.WORKSTATION},
                ranges={"work": (k // 2, k)},
            )
        )
    for run in runs:
        vce.run_to_completion(run, timeout=500.0)
        assert run.state is RunState.DONE, run.error
    return vce


def _placements(vce) -> list[tuple]:
    """The run's placement decisions: every allocation's machine set, in
    event order."""
    return [
        (r.data.get("req_id"), tuple(r.data.get("machines", ())))
        for r in vce.sim.log.records(category="sched.alloc")
    ]


class TestHierarchyConformance:
    def test_fanout1_is_byte_identical_to_flat(self, monkeypatch):
        """leader_fanout=1 is one cell: each round is one delegation the
        leader makes to itself, so no DelegateRequest goes on the wire, and
        it polls the whole view.  The run replays byte-identically."""
        from repro.netsim.network import Network
        from repro.scheduler.messages import DelegateRequest
        from repro.trace.replay import event_log_digest

        wire = []
        send = Network.send

        def counting_send(self, src, dst, payload, size=256):
            wire.append(type(payload))
            send(self, src, dst, payload, size)

        monkeypatch.setattr(Network, "send", counting_send)
        flat = _run_fan_apps(fanout=1)
        default = _run_fan_apps(fanout=1)
        assert event_log_digest(flat.sim.log) == event_log_digest(default.sim.log)
        assert _placements(flat) == _placements(default)
        assert wire and DelegateRequest not in wire
        log = flat.sim.log
        delegations = log.records(category="sched.delegate")
        assert len(delegations) == len(log.records(category="sched.request")) > 0
        for record in delegations:
            assert record.get("sub_leader") == record.source.split("/")[0]
            assert record.get("members") == 9 and not record.get("escalated")
        for daemon in flat.daemons.values():
            assert daemon.delegations_sent == daemon.requests_led
            assert daemon.members_polled == 9 * daemon.requests_led

    def test_hierarchical_digest_backend_invariant(self):
        """A fanout-3 run replays byte-identically through the backend
        seam, run after run, with the hierarchy actually engaged."""
        from repro.trace.replay import event_log_digest

        first = _run_fan_apps(fanout=3)
        again = _run_fan_apps(fanout=3)
        # delegations happened, so the invariance is about the
        # interesting path
        assert first.sim.log.records(category="sched.delegate")
        assert event_log_digest(again.sim.log) == event_log_digest(first.sim.log)
        assert _placements(again) == _placements(first)

    def test_flat_digest_backend_invariant(self):
        """The flat path's digest does not move when the backend's
        sanitizer seam is in use: an attached happens-before tracker is a
        pure observer of the ``host=``-tagged scheduling calls."""
        from repro.trace.replay import event_log_digest

        plain = _run_fan_apps(fanout=1)
        observed = _run_fan_apps(fanout=1, hb_sanitizer=True)
        assert any(observed.hb_tracker._node_hosts)  # tags were recorded
        assert event_log_digest(observed.sim.log) == event_log_digest(plain.sim.log)


# ------------------------------------------------ transport-parametric tier
#
# The behavior-level contract every backend must keep, including the
# real-process ``network`` backend (repro.netexec): identical task outcomes
# (DONE set + per-task results digest), a protocol-FSM-clean event log, and
# exactly-once completion under a daemon crash.  (time, seq) order is
# deliberately NOT asserted here — the network backend does not promise it.
#
# The network parameter is marked ``network`` (CI's netexec-smoke job runs
# `-m network`); it spawns real subprocesses, so timeouts are generous.

MACHINES = 3
NET_RATE = 20.0       # sim seconds per wall second for the network runs
NET_TIMEOUT = 90.0    # wall-seconds ceiling per network run

BEHAVIOR_BACKENDS = [
    "serial",
    pytest.param("network", marks=pytest.mark.network),
]


@pytest.fixture(params=BEHAVIOR_BACKENDS)
def behavior_backend(request):
    return request.param


def _chain_spec(seed=11, min_work=2.0, max_work=5.0):
    """The shared workload: a 3-deep randomdag chain, one task per
    machine (the allocation model places one instance per machine)."""
    from repro.netexec.frames import WorkloadSpec

    return WorkloadSpec(
        "randomdag",
        (("layers", MACHINES), ("width", 1), ("seed", seed),
         ("min_work", min_work), ("max_work", max_work)),
    )


def _run_sim_behavior(spec, seed, crash_first_host=False):
    """Run *spec* on the simulator; optionally crash the host of
    the first dispatched instance mid-task."""
    from repro.core import VCEConfig, VirtualComputingEnvironment, workstation_cluster
    from repro.faults.schedule import FaultSchedule
    from repro.migration.failover import FailoverConfig
    from repro.netexec.daemonhost import build_workload
    from repro.netexec.supervisor import sim_done_set, sim_results_digest
    from repro.scheduler.execution_program import RunState

    vce = VirtualComputingEnvironment(
        workstation_cluster(MACHINES),
        VCEConfig(seed=seed, failover=FailoverConfig()),
    ).boot()
    run = vce.submit(build_workload(spec))
    if crash_first_host:
        # advance until the first instance is dispatched, then kill its
        # host while the task is still running
        for _ in range(100):
            if vce.sim.log.records(category="runtime.dispatch"):
                break
            vce.sim.run(until=vce.sim.now + 1.0)
        dispatches = vce.sim.log.records(category="runtime.dispatch")
        assert dispatches, "workload never dispatched"
        victim = dispatches[0].data["host"]
        vce.chaos(FaultSchedule("kill-one").crash(1.0, victim))
    vce.run_to_completion(run, timeout=2_000.0)
    assert run.state is RunState.DONE, run.error
    return {
        "done": sim_done_set(run),
        "digest": sim_results_digest(run),
        "records": vce.sim.log.records(),
        "redispatches": len(vce.sim.log.records(category="recovery.redispatch")),
    }


def _run_network_behavior(spec, seed, crash_first_host=False):
    """Run *spec* across real daemon processes; optionally SIGKILL the
    daemon hosting the first dispatched instance mid-task."""
    import asyncio

    from repro.core import VCEConfig, workstation_cluster
    from repro.netexec.supervisor import NetworkVCE

    vce = NetworkVCE(
        workstation_cluster(MACHINES),
        VCEConfig(seed=seed, backend="network"),
        rate=NET_RATE,
    )

    async def _run():
        await vce.aboot(spec)
        try:
            app = await vce.asubmit(spec)
            drive = asyncio.get_running_loop().create_task(
                vce.sim.drive(stop_when=app.finished.is_set)
            )
            if crash_first_host:
                for _ in range(500):
                    if vce.sim.log.records(category="runtime.dispatch"):
                        break
                    await asyncio.sleep(0.01)
                dispatches = vce.sim.log.records(category="runtime.dispatch")
                assert dispatches, "workload never dispatched"
                await asyncio.sleep(0.05)  # let the task actually start
                vce.kill_daemon(dispatches[0].data["host"])
            await asyncio.wait_for(app.finished.wait(), NET_TIMEOUT)
            drive.cancel()
            return app
        finally:
            await vce.ashutdown()

    app = asyncio.run(_run())
    assert not app.failed
    assert vce.orphan_pids() == []
    return {
        "done": app.done_set(),
        "digest": app.results_digest(),
        "records": vce.sim.log.records(),
        "redispatches": len(vce.sim.log.records(category="recovery.redispatch")),
    }


def _run_behavior(backend, spec, seed, crash_first_host=False):
    if backend == "network":
        return _run_network_behavior(spec, seed, crash_first_host)
    return _run_sim_behavior(spec, seed, crash_first_host)


def _protocol_errors(records):
    from repro.analysis.protocol import check_records
    from repro.analysis.report import Severity

    return [
        f for f in check_records(records) if f.severity is Severity.ERROR
    ]


class TestBehaviorConformance:
    def test_network_backend_registered(self):
        assert "network" in BACKEND_NAMES

    def test_task_outcomes_match_serial_reference(self, behavior_backend):
        """Same DONE set and per-task results digest as the serial kernel
        — the testable half of the cross-backend determinism contract."""
        spec = _chain_spec(seed=11)
        reference = _run_sim_behavior(spec, seed=11)
        outcome = _run_behavior(behavior_backend, spec, seed=11)
        assert outcome["done"] == reference["done"]
        assert outcome["digest"] == reference["digest"]

    def test_bidding_protocol_conformance(self, behavior_backend):
        """analysis.protocol.check_records finds no FSM violation in the
        run's event stream, simulated or real-socket."""
        outcome = _run_behavior(behavior_backend, _chain_spec(seed=13), seed=13)
        errors = _protocol_errors(outcome["records"])
        assert errors == [], errors
        # non-vacuity: the bidding round actually happened
        assert any(r.category == "sched.alloc" for r in outcome["records"])

    def test_failover_exactly_once(self, behavior_backend):
        """Crashing the daemon hosting a running instance (simulated crash
        or real SIGKILL) re-dispatches its tasks exactly once each: the
        full DONE set is reached, the results digest is unchanged, and the
        protocol checker sees a clean strand→redispatch handshake."""
        spec = _chain_spec(seed=17, min_work=8.0, max_work=10.0)
        reference = _run_sim_behavior(spec, seed=17)
        outcome = _run_behavior(behavior_backend, spec, seed=17, crash_first_host=True)
        assert outcome["redispatches"] >= 1  # the crash actually bit
        assert outcome["done"] == reference["done"]
        assert outcome["digest"] == reference["digest"]
        assert _protocol_errors(outcome["records"]) == []
