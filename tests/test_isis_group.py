"""Integration tests for the Isis-style process group protocol."""

from collections import Counter
from dataclasses import dataclass

from repro.isis import Membership
from repro.isis.messages import ViewAck
from repro.netsim import Address, Network, Simulator, SimProcess


@dataclass(frozen=True)
class Ping:
    probe: str
    reply_to: Address


@dataclass(frozen=True)
class Pong:
    probe: str
    sender: Address


class Recorder(SimProcess):
    """A process that owns a group membership, records every view change,
    and answers point-to-point liveness probes (the fan-out a bidding round
    makes).  Its own messages are Ping and Pong; it routes every other
    message and every timer to its membership."""

    def __init__(self, name, group="g", contacts=None, config=None):
        super().__init__(name)
        self.membership = Membership(self, group, contacts, config)
        self.views = []
        self.pings_seen = []
        self.pongs = {}

    def on_start(self):
        self.membership.start()

    def on_stop(self):
        self.membership.stop()

    on_crash = on_stop

    def on_message(self, src, payload):
        handler = self._HANDLERS.get(type(payload))
        if handler is None:
            self.membership.on_message(src, payload)
        else:
            handler(self, src, payload)

    def on_timer(self, key):
        self.membership.on_timer(key)

    def on_view_change(self, view, joined, left):
        self.views.append((view.view_id, tuple(view.members), tuple(joined), tuple(left)))

    def probe(self, probe):
        """Send *probe* to every member of this view, self included; the
        members that answer land in ``self.pongs[probe]``."""
        self.pongs[probe] = []
        for member in self.membership.view.members:
            self.send(member, Ping(probe, self.address), size=128)

    def _on_ping(self, src, msg):
        self.pings_seen.append(msg.probe)
        self.send(msg.reply_to, Pong(msg.probe, self.address), size=128)

    def _on_pong(self, src, msg):
        self.pongs[msg.probe].append(msg.sender)

    _HANDLERS = {Ping: _on_ping, Pong: _on_pong}


def build_group(n, seed=0, config=None, settle=10.0):
    """Spin up n members on n hosts; member 0 founds the group."""
    sim = Simulator(seed)
    net = Network(sim)
    members = []
    founder_addr = Address("h0", "m0")
    for i in range(n):
        host = net.add_host(f"h{i}")
        contacts = None if i == 0 else [founder_addr]
        member = Recorder(f"m{i}", contacts=contacts, config=config)
        host.spawn(member)
        members.append(member)
    sim.run(until=settle)
    return sim, net, members


class TestFormation:
    def test_founder_is_coordinator_of_singleton_view(self):
        sim, net, (m,) = build_group(1)
        assert m.membership.joined and m.membership.is_coordinator
        assert m.membership.view.view_id == 1
        assert m.membership.view.members == (m.address,)

    def test_three_members_converge(self):
        sim, net, members = build_group(3)
        views = {m.membership.view.view_id for m in members}
        assert len(views) == 1
        membership = {m.membership.view.members for m in members}
        assert len(membership) == 1
        assert len(members[0].membership.view) == 3

    def test_founder_remains_coordinator(self):
        sim, net, members = build_group(4)
        for m in members:
            assert m.membership.view.coordinator == members[0].address
        assert members[0].membership.is_coordinator
        assert not members[1].membership.is_coordinator

    def test_join_through_non_coordinator_contact(self):
        sim = Simulator(0)
        net = Network(sim)
        h0, h1, h2 = (net.add_host(f"h{i}") for i in range(3))
        m0 = Recorder("m0")
        h0.spawn(m0)
        m1 = Recorder("m1", contacts=[Address("h0", "m0")])
        h1.spawn(m1)
        sim.run(until=5.0)
        # m2 joins via m1, who is not the coordinator
        m2 = Recorder("m2", contacts=[Address("h1", "m1")])
        h2.spawn(m2)
        sim.run(until=10.0)
        assert m2.membership.joined
        assert len(m2.membership.view) == 3
        assert m2.membership.view.coordinator == m0.address

    def test_view_change_callbacks_report_joined(self):
        sim, net, members = build_group(2)
        first_view = members[0].views[0]
        assert first_view[0] == 1
        assert members[0].address in first_view[2]  # founder joined itself
        last_view = members[0].views[-1]
        assert members[1].address in last_view[2]

    def test_members_can_join_at_any_time(self):
        sim, net, members = build_group(2)
        host = net.add_host("h9")
        late = Recorder("m9", contacts=[members[0].address])
        host.spawn(late)
        sim.run(until=sim.now + 10.0)
        assert late.membership.joined
        assert len(late.membership.view) == 3
        for m in members:
            assert late.address in m.membership.view

    def test_one_join_is_one_round(self):
        """A join that makes a parked group of n members costs one JoinReq,
        n-1 NewViews and n-1 ViewAcks, and nothing else: there is no flush
        round, and the acks vouch for the members, so the view installs
        parked and no beat follows."""
        sim, net, members = build_group(4)
        assert all(m.membership.parked for m in members)
        sent = Counter()
        send = net.send

        def counting_send(src, dst, payload, size=256):
            sent[type(payload).__name__] += 1
            send(src, dst, payload, size)

        net.send = counting_send
        late = Recorder("m9", contacts=[members[0].address])
        net.add_host("h9").spawn(late)
        sim.run(until=sim.now + 30.0)
        n = len(members) + 1
        assert len(late.membership.view) == n
        assert sent == Counter(JoinReq=1, NewView=n - 1, ViewAck=n - 1)
        assert all(m.membership.parked for m in members + [late])

    def test_join_retries_through_second_contact(self):
        sim = Simulator(0)
        net = Network(sim)
        h0, h1, h2 = (net.add_host(f"h{i}") for i in range(3))
        m0 = Recorder("m0")
        h0.spawn(m0)
        m1 = Recorder("m1", contacts=[Address("h0", "m0")])
        h1.spawn(m1)
        sim.run(until=5.0)
        h0.crash()  # coordinator gone; m1 will take over
        joiner = Recorder("m2", contacts=[Address("h0", "m0"), Address("h1", "m1")])
        h2.spawn(joiner)
        sim.run(until=40.0)
        assert joiner.membership.joined
        assert joiner.membership.view.coordinator == m1.address


class TestLeaveAndFailure:
    def test_member_whose_ack_is_held_is_left_out_of_the_next_view(self):
        """A ViewAck that has not arrived within ``hb_timeout`` makes its
        member a suspect: the coordinator logs it once as a straggler and
        installs the next view without it.  (Its held ack, arriving later
        from outside the view, is answered with ``Evicted``; it rejoins.)"""
        sim, net, members = build_group(3)
        cfg = members[0].membership.config
        hold = cfg.hb_timeout + 0.5

        class SlowAcker(Recorder):
            held = False

            def send(self, dst, payload, size=256):
                if isinstance(payload, ViewAck) and not self.held:
                    self.held = True
                    self.sim.schedule(hold, lambda: Recorder.send(self, dst, payload, size))
                else:
                    super().send(dst, payload, size)

        slow = SlowAcker("m9", contacts=[members[0].address])
        net.add_host("h9").spawn(slow)
        joined_at = sim.now
        coordinator = members[0].membership
        while slow.address not in coordinator.view:
            sim.run(until=sim.now + 0.01)
        installed = coordinator.view.view_id
        sim.run(until=joined_at + hold)
        assert slow.address not in coordinator.view
        assert coordinator.view.view_id == installed + 1
        (straggler,) = sim.log.records(category="isis.ack_straggler")
        assert straggler.get("member") == str(slow.address)
        assert straggler.time - joined_at <= cfg.hb_timeout + 0.1
        sim.run(until=sim.now + 30.0)
        assert slow.address in coordinator.view
        assert len(sim.log.records(category="isis.ack_straggler")) == 1

    def test_member_crash_detected_and_evicted(self):
        sim, net, members = build_group(3)
        net.host("h2").crash()
        sim.run(until=sim.now + 15.0)
        for m in members[:2]:
            assert members[2].address not in m.membership.view
        failures = sim.log.records(category="isis.failure_detected")
        assert any(r.get("failed") == str(members[2].address) for r in failures)

    def test_coordinator_crash_oldest_survivor_takes_over(self):
        sim, net, members = build_group(4)
        by_addr = {m.address: m for m in members}
        second_oldest = by_addr[members[0].membership.view.members[1]]
        net.host("h0").crash()
        sim.run(until=sim.now + 30.0)
        for m in members[1:]:
            assert m.membership.view.coordinator == second_oldest.address
            assert members[0].address not in m.membership.view
            assert len(m.membership.view) == 3
        assert second_oldest.membership.is_coordinator
        takeovers = sim.log.records(category="isis.takeover")
        assert takeovers and takeovers[0].get("new_coordinator") == str(second_oldest.address)

    def test_double_crash_third_member_takes_over(self):
        sim, net, members = build_group(4)
        by_addr = {m.address: m for m in members}
        ordered = [by_addr[a] for a in members[0].membership.view.members]
        # crash the two most senior members
        net.host(ordered[0].address.host).crash()
        net.host(ordered[1].address.host).crash()
        sim.run(until=sim.now + 60.0)
        survivors = ordered[2:]
        for m in survivors:
            assert m.membership.view.coordinator == ordered[2].address
            assert len(m.membership.view) == 2

    def test_group_survives_leader_churn_and_accepts_joins(self):
        sim, net, members = build_group(3)
        by_addr = {m.address: m for m in members}
        second_oldest = by_addr[members[0].membership.view.members[1]]
        net.host("h0").crash()
        sim.run(until=sim.now + 30.0)
        host = net.add_host("h9")
        joiner = Recorder("m9", contacts=[members[1].address])
        host.spawn(joiner)
        sim.run(until=sim.now + 15.0)
        assert joiner.membership.joined
        assert joiner.membership.view.coordinator == second_oldest.address

    def test_coordinator_restarted_before_takeover_rejoins_as_member(self):
        """A crashed coordinator restarted before anyone has taken over
        asks a member that still holds the old view, in which the restarted
        process is the coordinator.  It must not get that view back (it
        would lead a group of stale members, having lost the coordinator's
        state): it retries until the takeover has evicted its old
        incarnation and then joins the successor's group."""
        sim, net, members = build_group(4)
        by_addr = {m.address: m for m in members}
        old, successor = (by_addr[a] for a in members[0].membership.view.members[:2])
        old_view = old.membership.view.view_id
        old.host.crash()
        sim.run(until=sim.now + 1.0)
        old.host.recover()
        old.host.reap(old.name)
        restarted = Recorder(old.name, contacts=[successor.address])
        old.host.spawn(restarted)
        restarted_at = sim.now
        sim.run(until=sim.now + 30.0)
        assert (
            restarted.membership.view is not None
            and restarted.membership.view.view_id > old_view
        )
        assert restarted.membership.view.coordinator == successor.address
        assert all(m.membership.view == restarted.membership.view for m in members if m is not old)
        assert len(restarted.membership.view) == 4
        stale = [
            r for r in sim.log.records(category="isis.view")
            if r.source == str(restarted.address)
            and r.time >= restarted_at
            and r.get("view_id") <= old_view
        ]
        assert not stale

    def test_multicast_still_works_after_takeover(self):
        """After the takeover, a fan-out from either survivor reaches both
        survivors and nobody else."""
        sim, net, members = build_group(3)
        net.host("h0").crash()
        sim.run(until=sim.now + 30.0)
        members[2].probe("post-fail")
        members[1].probe("post-fail-2")
        sim.run(until=sim.now + 5.0)
        survivors = {m.address for m in members[1:]}
        assert set(members[2].pongs["post-fail"]) == survivors
        assert set(members[1].pongs["post-fail-2"]) == survivors
        for m in members[1:]:
            assert sorted(m.pings_seen) == ["post-fail", "post-fail-2"]


class TestDeterminism:
    def test_same_seed_same_view_history(self):
        def history(seed):
            sim, net, members = build_group(4, seed=seed)
            net.host("h0").crash()
            sim.run(until=sim.now + 30.0)
            return [m.views for m in members]

        assert history(11) == history(11)


class TestSuspectReports:
    def test_suspect_of_live_member_is_retracted_by_heartbeat(self):
        """Cut off from most of its group under quorum, the coordinator
        suspects every member it cannot hear but may not evict them, so the
        suspicions stay queued.  The partition heals before anyone takes
        over: heartbeats retract every suspicion and the view never
        changes."""
        from repro.isis import IsisConfig

        sim, net, members = build_group(5, config=IsisConfig(require_majority=True))
        by_addr = {m.address: m for m in members}
        ordered = [by_addr[a] for a in members[0].membership.view.members]
        coordinator, view_before = ordered[0], ordered[0].membership.view
        # detection takes at most hb_timeout + hb_interval (2.5 s); the first
        # takeover on the majority side (rank 2) waits 3 * hb_timeout (6 s)
        net.partition({m.address.host for m in ordered[:2]})
        sim.run(until=sim.now + 3.5)
        assert coordinator.membership._queued_leaves == {m.address for m in ordered[2:]}
        assert sim.log.records(category="isis.quorum_blocked")
        net.heal()
        sim.run(until=sim.now + 20.0)
        assert not coordinator.membership._queued_leaves
        assert not sim.log.records(category="isis.takeover")
        for m in ordered:
            assert m.membership.view == view_before
