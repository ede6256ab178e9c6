"""Tests for the discrete-event kernel, hosts, network, and processes."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.netsim import Address, Host, LatencyModel, Network, SimProcess, Simulator
from repro.netsim.network import RTO, TransportConfig
from repro.util.errors import SimulationError


class TestSimulator:
    def test_time_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_schedule_and_run(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(sim.now))
        sim.schedule(0.5, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [0.5, 1.0]
        assert sim.now == 1.0

    def test_fifo_order_at_same_timestamp(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(1.0, lambda i=i: fired.append(i))
        sim.run()
        assert fired == list(range(10))

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1.0, lambda: None)

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: sim.schedule_at(1.0, lambda: None))
        with pytest.raises(SimulationError):
            sim.run()

    def test_run_until_advances_clock(self):
        sim = Simulator()
        sim.schedule(10.0, lambda: None)
        sim.run(until=3.0)
        assert sim.now == 3.0
        assert sim.pending == 1
        sim.run()
        assert sim.now == 10.0

    def test_run_until_with_empty_queue(self):
        sim = Simulator()
        sim.run(until=2.5)
        assert sim.now == 2.5

    def test_cancel_timer(self):
        sim = Simulator()
        fired = []
        timer = sim.schedule(1.0, lambda: fired.append(1))
        timer.cancel()
        sim.run()
        assert fired == []
        assert timer.cancelled

    def test_stop_when(self):
        sim = Simulator()
        fired = []
        for i in range(5):
            sim.schedule(float(i + 1), lambda i=i: fired.append(i))
        sim.run(stop_when=lambda: len(fired) >= 2)
        assert fired == [0, 1]

    def test_max_events_guard(self):
        sim = Simulator()

        def loop():
            sim.call_soon(loop)

        sim.call_soon(loop)
        with pytest.raises(SimulationError):
            sim.run(max_events=100)

    def test_nested_scheduling(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: sim.schedule(1.0, lambda: fired.append(sim.now)))
        sim.run()
        assert fired == [2.0]

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), max_size=40))
    def test_events_fire_in_nondecreasing_time_order(self, delays):
        sim = Simulator()
        times = []
        for d in delays:
            sim.schedule(d, lambda: times.append(sim.now))
        sim.run()
        assert times == sorted(times)
        assert len(times) == len(delays)


class _Echo(SimProcess):
    """Replies to every message with the same payload."""

    def __init__(self, name):
        super().__init__(name)
        self.got = []

    def on_message(self, src, payload):
        self.got.append(payload)
        self.send(src, ("echo", payload))


class _Caller(SimProcess):
    def __init__(self, name, target: Address):
        super().__init__(name)
        self.target = target
        self.replies = []

    def on_start(self):
        self.send(self.target, "hello", size=100)

    def on_message(self, src, payload):
        self.replies.append((self.now, payload))


class TestNetwork:
    def _pair(self, seed=0, latency=None):
        sim = Simulator(seed)
        net = Network(sim, latency)
        h1, h2 = net.add_host("h1"), net.add_host("h2")
        return sim, net, h1, h2

    def test_message_roundtrip(self):
        sim, net, h1, h2 = self._pair()
        echo = _Echo("echo")
        h2.spawn(echo)
        caller = _Caller("caller", Address("h2", "echo"))
        h1.spawn(caller)
        sim.run()
        assert echo.got == ["hello"]
        assert caller.replies and caller.replies[0][1] == ("echo", "hello")

    def test_latency_model_applied(self):
        model = LatencyModel(base_latency=0.01, bandwidth=1000, jitter=0.0)
        sim, net, h1, h2 = self._pair(latency=model)
        echo = _Echo("echo")
        h2.spawn(echo)
        caller = _Caller("caller", Address("h2", "echo"))
        h1.spawn(caller)
        sim.run()
        # request: 0.01 + 100/1000 = 0.11 ; reply: 0.01 + 256/1000 = 0.266
        assert caller.replies[0][0] == pytest.approx(0.11 + 0.266, rel=1e-6)

    def test_local_delivery_cheap(self):
        sim, net, h1, h2 = self._pair()
        echo = _Echo("echo")
        h1.spawn(echo)
        caller = _Caller("caller", Address("h1", "echo"))
        h1.spawn(caller)
        sim.run()
        assert caller.replies[0][0] <= 2 * net.latency.local_latency + 1e-12

    def test_send_to_unknown_host_raises(self):
        sim, net, h1, h2 = self._pair()
        p = _Echo("p")
        h1.spawn(p)
        sim.run()
        with pytest.raises(SimulationError):
            net.send(p.address, Address("nope", "x"), "payload")

    def test_crashed_host_drops_messages(self):
        sim, net, h1, h2 = self._pair()
        echo = _Echo("echo")
        h2.spawn(echo)
        caller = _Caller("caller", Address("h2", "echo"))
        h2.crash()
        h1.spawn(caller)
        sim.run()
        assert echo.got == []
        assert caller.replies == []

    def test_partition_blocks_and_heal_restores(self):
        sim, net, h1, h2 = self._pair()
        echo = _Echo("echo")
        h2.spawn(echo)
        net.partition({"h1"}, {"h2"})
        caller = _Caller("caller", Address("h2", "echo"))
        h1.spawn(caller)
        sim.run()
        assert echo.got == []
        net.heal()
        h1.process("caller").send(Address("h2", "echo"), "again")
        sim.run()
        assert echo.got == ["again"]

    def test_heal_resends_a_blocked_message_within_one_wire_delay(self):
        """A message held behind a partition goes out again the moment the
        partition heals, not at its backed-off retry — which would also hold
        every later message on the pair in the receiver's reorder buffer."""
        model = LatencyModel(base_latency=0.01, bandwidth=1e9, jitter=0.0)
        sim, net, h1, h2 = self._pair(latency=model)
        sink, sender = _Recorder("sink"), SimProcess("sender")
        h2.spawn(sink)
        h1.spawn(sender)
        net.partition({"h1"}, {"h2"})
        net.send(sender.address, sink.address, "held")
        # retries back off 0.05, 0.1, ... 1.6 s: the one due after 3.15 s
        # is 6.35 s after the send
        sim.run(until=4.0)
        assert sink.got == []
        net.heal()
        net.send(sender.address, sink.address, "after")
        sim.run(until=4.0 + 0.0101)
        assert sink.got == ["held", "after"]
        # the backoff timer of the re-sent message does nothing
        sim.run()
        assert sink.got == ["held", "after"]
        assert net.duplicates_dropped == 0 and net.messages_lost == 0

    def test_a_heal_resets_the_backoff_of_a_held_message(self):
        """The resend at a heal is a first attempt: if a drop loses it, it
        is retried RTO later, not at the backoff the partition built up
        (MAX_RTO), which per-pair FIFO would hold the whole pair behind."""
        model = LatencyModel(base_latency=0.01, bandwidth=1e9, jitter=0.0)
        sim, net, h1, h2 = self._pair(latency=model)
        sink, sender = _Recorder("sink"), SimProcess("sender")
        h2.spawn(sink)
        h1.spawn(sender)
        net.partition({"h1"}, {"h2"})
        net.send(sender.address, sink.address, "held")
        # by now the retries are MAX_RTO apart
        sim.run(until=20.0)
        assert sink.got == []
        net.set_drop_rate(1.0)
        net.heal()
        net.set_drop_rate(0.0)
        sim.run(until=20.0 + RTO + 0.0101)
        assert sink.got == ["held"]
        assert net.messages_lost == 0

    def test_drop_rate_one_drops_everything(self):
        sim, net, h1, h2 = self._pair()
        net.set_drop_rate(1.0)
        echo = _Echo("echo")
        h2.spawn(echo)
        caller = _Caller("caller", Address("h2", "echo"))
        h1.spawn(caller)
        sim.run()
        assert echo.got == []

    def test_drop_rate_validation(self):
        sim, net, *_ = self._pair()
        with pytest.raises(SimulationError):
            net.set_drop_rate(1.5)

    def test_counters(self):
        sim, net, h1, h2 = self._pair()
        echo = _Echo("echo")
        h2.spawn(echo)
        caller = _Caller("caller", Address("h2", "echo"))
        h1.spawn(caller)
        sim.run()
        assert net.messages_sent == 2
        assert net.messages_delivered == 2
        assert net.bytes_sent == 100 + 256

    @pytest.mark.parametrize("faulty", [False, True])
    def test_delivered_counts_only_what_a_live_process_received(self, faulty):
        """Three sends: one to a live process, two to a host that crashed
        (one of them to a process that never existed).  On a *faulty*
        network every transmission is duplicated and half are dropped: the
        transport's retransmissions and duplicate copies count neither as
        sent nor as delivered."""
        sim = Simulator(0)
        net = Network(sim)
        h1, h2, h3 = (net.add_host(name) for name in ("h1", "h2", "h3"))
        if faulty:
            net.set_drop_rate(0.5)
            net.set_duplicate_rate(1.0)
        sender, alive, doomed = SimProcess("sender"), _Echo("alive"), _Echo("doomed")
        h1.spawn(sender)
        h2.spawn(alive)
        h3.spawn(doomed)
        sim.run()
        h3.crash()
        for target in (alive.address, doomed.address, Address("h3", "never-existed")):
            net.send(sender.address, target, "x")
        sim.run()
        assert alive.got == ["x"] and doomed.got == []
        # the echo goes back to a process that ignores it, but receives it
        assert (net.messages_sent, net.messages_delivered) == (4, 2)
        if faulty:
            assert net.duplicates_dropped > 0 and net.retransmissions > 0

    def test_determinism_same_seed(self):
        def run(seed):
            sim = Simulator(seed)
            net = Network(sim)
            a, b = net.add_host("a"), net.add_host("b")
            echo = _Echo("echo")
            b.spawn(echo)
            caller = _Caller("caller", Address("b", "echo"))
            a.spawn(caller)
            sim.run()
            return caller.replies

        assert run(5) == run(5)
        assert run(5) != run(6)


class _Recorder(SimProcess):
    def __init__(self, name):
        super().__init__(name)
        self.got = []

    def on_message(self, src, payload):
        self.got.append(payload)


_RELIABLE_HOSTS = ("h0", "h1", "h2")


class TestReliableTransport:
    """The transport's delivery contract under every fault knob at once:
    per-pair FIFO, at most once, loss only as counted abandonment."""

    @settings(deadline=None, max_examples=150)
    @given(
        drop=st.floats(0.0, 0.7),
        duplicate=st.floats(0.0, 0.5),
        reorder=st.floats(0.0, 0.5),
        max_retries=st.integers(0, 4),
        sends=st.lists(
            st.tuples(st.floats(0.0, 0.5), st.integers(0, 2), st.integers(1, 2)),
            min_size=1,
            max_size=40,
        ),
        windows=st.lists(
            st.tuples(st.floats(0.0, 0.5), st.floats(0.0, 0.8), st.integers(0, 2)),
            max_size=2,
        ),
        seed=st.integers(0, 2**16),
    )
    def test_in_order_exactly_once_or_counted_lost(
        self, drop, duplicate, reorder, max_retries, sends, windows, seed
    ):
        """Per (src, dst) pair the receiver sees strictly increasing send
        indices; every message is delivered or counted in
        ``messages_lost`` by the time the run drains, so nothing is left
        wedged behind an abandoned sequence number; and a probe sent once
        the faults stop arrives last."""
        sim = Simulator(seed)
        net = Network(sim, transport=TransportConfig(max_retries=max_retries))
        recorders = {}
        for name in _RELIABLE_HOSTS:
            recorders[name] = _Recorder("p")
            net.add_host(name).spawn(recorders[name])
        net.set_drop_rate(drop)
        net.set_duplicate_rate(duplicate)
        net.set_reorder_rate(reorder, spread=0.05)
        for start, length, isolated in windows:
            sim.schedule_at(start, lambda h=_RELIABLE_HOSTS[isolated]: net.partition({h}))
            sim.schedule_at(start + length, net.heal)
        sent = {}

        def send(src, dst):
            index = sent.get((src, dst), 0)
            sent[(src, dst)] = index + 1
            net.send(Address(src, "p"), Address(dst, "p"), (src, index))

        for at, src, hop in sends:
            src_name = _RELIABLE_HOSTS[src]
            dst_name = _RELIABLE_HOSTS[(src + hop) % len(_RELIABLE_HOSTS)]
            sim.schedule_at(at, lambda s=src_name, d=dst_name: send(s, d))
        sim.run()
        # the run drained: nothing may wait in a reorder buffer any more
        assert net.messages_delivered + net.messages_lost == sum(sent.values())

        net.heal()
        net.set_drop_rate(0.0)
        net.set_duplicate_rate(0.0)
        net.set_reorder_rate(0.0)
        probes = dict(sent)
        for src, dst in probes:
            send(src, dst)
        sim.run()

        delivered = 0
        for dst, recorder in recorders.items():
            for src in _RELIABLE_HOSTS:
                indices = [i for s, i in recorder.got if s == src]
                assert indices == sorted(set(indices)), (src, dst, indices)
                if (src, dst) in probes:
                    assert indices[-1] == probes[(src, dst)], "a probe was wedged"
                delivered += len(indices)
        assert delivered == net.messages_delivered
        assert delivered + net.messages_lost == sum(sent.values())


class TestHost:
    def test_duplicate_process_rejected(self):
        sim = Simulator()
        net = Network(sim)
        h = net.add_host("h")
        h.spawn(_Echo("p"))
        with pytest.raises(SimulationError):
            h.spawn(_Echo("p"))

    def test_duplicate_host_rejected(self):
        sim = Simulator()
        net = Network(sim)
        net.add_host("h")
        with pytest.raises(SimulationError):
            net.add_host("h")

    def test_bad_speed_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            Host(sim, "h", speed=0)

    def test_crash_stops_processes_and_cancels_timers(self):
        sim = Simulator()
        net = Network(sim)
        h = net.add_host("h")

        class Ticker(SimProcess):
            def __init__(self):
                super().__init__("ticker")
                self.ticks = 0
                self.crashed = False

            def on_start(self):
                self.set_timer(1.0, "tick")

            def on_timer(self, key):
                self.ticks += 1
                self.set_timer(1.0, "tick")

            def on_crash(self):
                self.crashed = True

        t = Ticker()
        h.spawn(t)
        sim.schedule(2.5, h.crash)
        sim.run(until=10.0)
        assert t.ticks == 2
        assert t.crashed
        assert not t.alive

    def test_recover_bumps_incarnation(self):
        sim = Simulator()
        net = Network(sim)
        h = net.add_host("h")
        h.crash()
        h.recover()
        assert h.up and h.incarnation == 1

    def test_kill_invokes_on_stop(self):
        sim = Simulator()
        net = Network(sim)
        h = net.add_host("h")

        class P(SimProcess):
            stopped = False

            def on_stop(self):
                self.stopped = True

        p = P("p")
        h.spawn(p)
        sim.run()
        h.kill("p")
        assert p.stopped and not p.alive

    def test_timer_rearm_replaces(self):
        sim = Simulator()
        net = Network(sim)
        h = net.add_host("h")

        class P(SimProcess):
            def __init__(self):
                super().__init__("p")
                self.fired = []

            def on_start(self):
                self.set_timer(5.0, "t")
                self.set_timer(1.0, "t")  # re-arm replaces

            def on_timer(self, key):
                self.fired.append(self.now)

        p = P()
        h.spawn(p)
        sim.run()
        assert p.fired == [1.0]

    def test_emit_goes_to_sim_log(self):
        sim = Simulator()
        net = Network(sim)
        h = net.add_host("h")

        class P(SimProcess):
            def on_start(self):
                self.emit("custom.event", value=42)

        h.spawn(P("p"))
        sim.run()
        rec = sim.log.first("custom.event")
        assert rec is not None and rec.get("value") == 42


class TestDaemonEvents:
    def test_run_stops_when_only_daemon_events_remain(self):
        sim = Simulator()
        ticks = []

        def tick():
            ticks.append(sim.now)
            sim.schedule(1.0, tick, daemon=True)

        sim.schedule(1.0, tick, daemon=True)
        sim.schedule(3.5, lambda: None)  # one real event
        sim.run()
        # the loop processed daemon ticks only while real work remained
        assert sim.now == pytest.approx(3.5)
        assert ticks == [1.0, 2.0, 3.0]

    def test_daemon_events_still_run_under_deadline(self):
        sim = Simulator()
        ticks = []

        def tick():
            ticks.append(sim.now)
            sim.schedule(1.0, tick, daemon=True)

        sim.schedule(1.0, tick, daemon=True)
        sim.run(until=4.5)
        assert ticks == [1.0, 2.0, 3.0, 4.0]

    def test_cancel_accounting(self):
        sim = Simulator()
        timer = sim.schedule(5.0, lambda: None)
        timer.cancel()
        timer.cancel()  # double-cancel must not corrupt the counter
        assert sim._live_nondaemon == 0
        sim.schedule(1.0, lambda: None, daemon=True)
        sim.run()  # returns immediately: only a daemon event remains
        assert sim.now == 0.0

    def test_cancel_after_terminal_drain_is_noop(self):
        """Cancelling timers once run() has fully drained the heap must not
        corrupt the tombstone or live-event counters for later runs."""
        sim = Simulator()
        timers = [sim.schedule(float(i), lambda: None) for i in range(5)]
        daemon = sim.schedule(100.0, lambda: None, daemon=True)
        sim.run()
        assert sim.pending == 1  # the daemon survivor
        for timer in timers:
            timer.cancel()  # fired: inert
        assert sim.pending == 1
        daemon.cancel()  # live, still in the heap: a real cancel
        assert sim.pending == 0
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.run()
        assert fired == [1]

    def test_cancel_of_entry_outside_heap_cannot_underflow_counters(self):
        """White-box pin of the terminal-cancel guard: an unfired entry that
        is no longer in any heap must cancel as a pure flag flip. Without
        the guard ``pending`` would underflow to -1 and the live-event
        count would go negative, wedging later runs."""
        sim = Simulator()
        timer = sim.schedule(5.0, lambda: None)
        sim._heap.clear()  # simulate a terminal state with the entry gone
        sim._live_nondaemon = 0
        timer.cancel()
        assert timer.cancelled is True
        assert sim.pending == 0  # not -1
        assert sim._cancelled_in_heap == 0
        assert sim._live_nondaemon == 0
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.run()
        assert fired == [1]

    def test_daemon_spawning_real_work_keeps_running(self):
        sim = Simulator()
        done = []

        def daemon_tick():
            if sim.now >= 2.0 and not done:
                sim.schedule(1.0, lambda: done.append(sim.now))  # real event
            sim.schedule(1.0, daemon_tick, daemon=True)

        sim.schedule(1.0, daemon_tick, daemon=True)
        sim.schedule(2.5, lambda: None)  # keeps the loop alive until 2.5
        sim.run()
        assert done == [3.0]


class TestEgressSerialization:
    def _burst(self, serialize):
        model = LatencyModel(base_latency=0.01, bandwidth=1000, jitter=0.0)
        sim = Simulator()
        net = Network(sim, model, egress_serialization=serialize)
        src = net.add_host("src")
        arrivals = []

        class Sink(SimProcess):
            def on_message(self, s, payload):
                arrivals.append(self.now)

        for i in range(4):
            host = net.add_host(f"d{i}")
            host.spawn(Sink("sink"))
        sim.run()
        sender = SimProcess("tx")
        src.spawn(sender)
        sim.run()
        for i in range(4):
            sender.send(Address(f"d{i}", "sink"), "x", size=100)  # 0.1s tx each
        sim.run()
        return sorted(arrivals)

    def test_without_serialization_concurrent(self):
        arrivals = self._burst(serialize=False)
        # all four messages travel independently: identical arrival times
        assert arrivals[-1] - arrivals[0] < 1e-9

    def test_with_serialization_queued(self):
        arrivals = self._burst(serialize=True)
        # one NIC: transmissions are spaced by 100/1000 = 0.1s each
        gaps = [b - a for a, b in zip(arrivals, arrivals[1:])]
        for gap in gaps:
            assert gap == pytest.approx(0.1, rel=1e-6)

    def test_serialization_idle_nic_no_penalty(self):
        model = LatencyModel(base_latency=0.01, bandwidth=1000, jitter=0.0)
        for serialize in (False, True):
            sim = Simulator()
            net = Network(sim, model, egress_serialization=serialize)
            src, dst = net.add_host("s"), net.add_host("d")
            got = []

            class Sink(SimProcess):
                def on_message(self, s, payload):
                    got.append(self.now)

            dst.spawn(Sink("sink"))
            p = SimProcess("tx")
            src.spawn(p)
            sim.run()
            p.send(Address("d", "sink"), "x", size=100)
            sim.run()
            assert got[0] == pytest.approx(0.11, rel=1e-6)
