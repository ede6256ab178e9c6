"""Integration tests for the Isis-style process group protocol."""

import pytest

from repro.isis import ALL, MAJORITY, IsisMember
from repro.netsim import Address, Network, Simulator
from repro.util.errors import MembershipError


class Recorder(IsisMember):
    """Member that records every delivery and view change."""

    def __init__(self, name, group="g", contacts=None, config=None, bid_value=None):
        super().__init__(name, group, contacts, config)
        self.views = []
        self.cb_deliveries = []
        self.requests_seen = []
        self.bid_value = bid_value if bid_value is not None else name

    def on_view_change(self, view, joined, left):
        self.views.append((view.view_id, tuple(view.members), tuple(joined), tuple(left)))

    def on_cbcast(self, sender, kind, payload):
        self.cb_deliveries.append((sender, kind, payload))

    def on_group_request(self, requester, body, reply):
        self.requests_seen.append(body)
        if body != "no-reply-please":
            reply(self.bid_value)


def build_group(n, seed=0, config=None, settle=10.0, reliable=False):
    """Spin up n members on n hosts; member 0 founds the group.  With
    *reliable*, the hosts talk over the reliable transport."""
    sim = Simulator(seed)
    net = Network(sim)
    if reliable:
        net.set_reliable()
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
        assert m.joined and m.is_coordinator
        assert m.view.view_id == 1
        assert m.view.members == (m.address,)

    def test_three_members_converge(self):
        sim, net, members = build_group(3)
        views = {m.view.view_id for m in members}
        assert len(views) == 1
        membership = {m.view.members for m in members}
        assert len(membership) == 1
        assert len(members[0].view) == 3

    def test_founder_remains_coordinator(self):
        sim, net, members = build_group(4)
        for m in members:
            assert m.view.coordinator == members[0].address
        assert members[0].is_coordinator
        assert not members[1].is_coordinator

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
        assert m2.joined
        assert len(m2.view) == 3
        assert m2.view.coordinator == m0.address

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
        assert late.joined
        assert len(late.view) == 3
        for m in members:
            assert late.address in m.view

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
        assert joiner.joined
        assert joiner.view.coordinator == m1.address


class TestMulticast:
    def test_cbcast_reaches_everyone_including_sender(self):
        sim, net, members = build_group(3)
        members[1].cbcast("news", {"x": 1})
        sim.run(until=sim.now + 5.0)
        for m in members:
            assert (members[1].address, "news", {"x": 1}) in m.cb_deliveries

    def test_cbcast_fifo_per_sender(self):
        sim, net, members = build_group(4)
        for i in range(10):
            members[0].cbcast("seq", i)
        sim.run(until=sim.now + 5.0)
        for m in members:
            seqs = [p for (_, k, p) in m.cb_deliveries if k == "seq"]
            assert seqs == list(range(10))

    def test_cbcast_causal_across_senders(self):
        # m1 multicasts "question"; m2 multicasts "answer" only after
        # delivering it. No member may see the answer before the question.
        sim, net, members = build_group(3)
        m1, m2 = members[1], members[2]

        original = m2.on_cbcast

        def reactive(sender, kind, payload):
            original(sender, kind, payload)
            if kind == "question":
                m2.cbcast("answer", "42")

        m2.on_cbcast = reactive
        m1.cbcast("question", "what?")
        sim.run(until=sim.now + 5.0)
        for m in members:
            kinds = [k for (_, k, _) in m.cb_deliveries]
            assert "question" in kinds and "answer" in kinds
            assert kinds.index("question") < kinds.index("answer")

    def test_multicast_before_join_raises(self):
        sim = Simulator()
        net = Network(sim)
        h = net.add_host("h")
        m = Recorder("m", contacts=[Address("nowhere", "x")])
        h.spawn(m)
        with pytest.raises(MembershipError):
            m.cbcast("x", 1)
        with pytest.raises(MembershipError):
            m.group_request("x")


class TestFlushReplay:
    @pytest.mark.parametrize("primitive", ["cbcast", "group_request"])
    def test_crashed_senders_multicast_reaches_every_survivor_once(self, primitive):
        """A multicast that reached one peer before its sender crashed is
        delivered by the others from the flush replay of the view change
        that evicts the sender, exactly once everywhere."""
        sim, net, members = build_group(4)
        by_addr = {m.address: m for m in members}
        ordered = [by_addr[a] for a in members[0].view.members]
        sender, peer = ordered[1], ordered[2]
        net.partition({sender.address.host, peer.address.host})
        if primitive == "cbcast":
            sender.cbcast("last-words", "x")
        else:
            sender.group_request("last-words")
        sim.run(until=sim.now + 0.05)
        net.host(sender.address.host).crash()
        net.heal()
        sim.run(until=sim.now + 15.0)
        for m in ordered:
            if m is sender:
                continue
            assert sender.address not in m.view
            if primitive == "cbcast":
                seen = [p for (_, k, p) in m.cb_deliveries if k == "last-words"]
            else:
                seen = [b for b in m.requests_seen if b == "last-words"]
            assert len(seen) == 1, f"{m.name} delivered it {len(seen)} times"


class TestRequestReply:
    def test_collect_all_replies(self):
        sim, net, members = build_group(3)
        results = {}
        members[0].group_request(
            "state?", n_wanted=ALL, on_done=lambda r, t: results.update(r=r, t=t)
        )
        sim.run(until=sim.now + 5.0)
        assert results["t"] is False
        assert len(results["r"]) == 3
        assert {v for (_, v) in results["r"]} == {"m0", "m1", "m2"}

    def test_collect_n_wanted_subset(self):
        sim, net, members = build_group(5)
        results = {}
        members[2].group_request(
            "state?", n_wanted=2, on_done=lambda r, t: results.update(r=r, t=t)
        )
        sim.run(until=sim.now + 5.0)
        assert results["t"] is False
        assert len(results["r"]) == 2

    def test_majority(self):
        sim, net, members = build_group(5)
        results = {}
        members[0].group_request(
            "state?", n_wanted=MAJORITY, on_done=lambda r, t: results.update(r=r, t=t)
        )
        sim.run(until=sim.now + 5.0)
        assert len(results["r"]) == 3

    def test_timeout_with_partial_replies(self):
        sim, net, members = build_group(3)
        results = {}
        members[0].group_request(
            "no-reply-please",
            n_wanted=ALL,
            timeout=2.0,
            on_done=lambda r, t: results.update(r=r, t=t),
        )
        sim.run(until=sim.now + 5.0)
        assert results["t"] is True
        assert results["r"] == []

    def test_all_members_see_request(self):
        sim, net, members = build_group(3)
        members[1].group_request("state?", on_done=lambda r, t: None)
        sim.run(until=sim.now + 5.0)
        for m in members:
            assert "state?" in m.requests_seen


class TestLeaveAndFailure:
    def test_member_crash_detected_and_evicted(self):
        sim, net, members = build_group(3)
        net.host("h2").crash()
        sim.run(until=sim.now + 15.0)
        for m in members[:2]:
            assert members[2].address not in m.view
        failures = sim.log.records(category="isis.failure_detected")
        assert any(r.get("failed") == str(members[2].address) for r in failures)

    def test_coordinator_crash_oldest_survivor_takes_over(self):
        sim, net, members = build_group(4)
        by_addr = {m.address: m for m in members}
        second_oldest = by_addr[members[0].view.members[1]]
        net.host("h0").crash()
        sim.run(until=sim.now + 30.0)
        for m in members[1:]:
            assert m.view.coordinator == second_oldest.address
            assert members[0].address not in m.view
            assert len(m.view) == 3
        assert second_oldest.is_coordinator
        takeovers = sim.log.records(category="isis.takeover")
        assert takeovers and takeovers[0].get("new_coordinator") == str(second_oldest.address)

    def test_double_crash_third_member_takes_over(self):
        sim, net, members = build_group(4)
        by_addr = {m.address: m for m in members}
        ordered = [by_addr[a] for a in members[0].view.members]
        # crash the two most senior members
        net.host(ordered[0].address.host).crash()
        net.host(ordered[1].address.host).crash()
        sim.run(until=sim.now + 60.0)
        survivors = ordered[2:]
        for m in survivors:
            assert m.view.coordinator == ordered[2].address
            assert len(m.view) == 2

    def test_group_survives_leader_churn_and_accepts_joins(self):
        sim, net, members = build_group(3)
        by_addr = {m.address: m for m in members}
        second_oldest = by_addr[members[0].view.members[1]]
        net.host("h0").crash()
        sim.run(until=sim.now + 30.0)
        host = net.add_host("h9")
        joiner = Recorder("m9", contacts=[members[1].address])
        host.spawn(joiner)
        sim.run(until=sim.now + 15.0)
        assert joiner.joined
        assert joiner.view.coordinator == second_oldest.address

    @pytest.mark.parametrize("reliable", [False, True])
    def test_coordinator_restarted_before_takeover_rejoins_as_member(self, reliable):
        """A crashed coordinator restarted before anyone has taken over
        asks a member that still holds the old view, in which the restarted
        process is the coordinator.  It must not get that view back (it
        would lead a group of stale members, having lost the coordinator's
        state): it retries until the takeover has evicted its old
        incarnation and then joins the successor's group."""
        sim, net, members = build_group(4, reliable=reliable)
        by_addr = {m.address: m for m in members}
        old, successor = (by_addr[a] for a in members[0].view.members[:2])
        old_view = old.view.view_id
        old.host.crash()
        sim.run(until=sim.now + 1.0)
        old.host.recover()
        old.host.reap(old.name)
        restarted = Recorder(old.name, contacts=[successor.address])
        old.host.spawn(restarted)
        restarted_at = sim.now
        sim.run(until=sim.now + 30.0)
        assert restarted.view is not None and restarted.view.view_id > old_view
        assert restarted.view.coordinator == successor.address
        assert all(m.view == restarted.view for m in members if m is not old)
        assert len(restarted.view) == 4
        stale = [
            r for r in sim.log.records(category="isis.view")
            if r.source == str(restarted.address)
            and r.time >= restarted_at
            and r.get("view_id") <= old_view
        ]
        assert not stale

    def test_multicast_still_works_after_takeover(self):
        sim, net, members = build_group(3)
        net.host("h0").crash()
        sim.run(until=sim.now + 30.0)
        results = {}
        members[2].group_request(
            "post-fail", on_done=lambda r, t: results.update(r=r, t=t)
        )
        members[1].cbcast("post-fail-cb", "hi")
        sim.run(until=sim.now + 5.0)
        assert results["t"] is False and len(results["r"]) == 2
        for m in members[1:]:
            assert "post-fail" in m.requests_seen
            assert ("post-fail-cb" in [k for (_, k, _) in m.cb_deliveries])


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
        ordered = [by_addr[a] for a in members[0].view.members]
        coordinator, view_before = ordered[0], ordered[0].view
        # detection takes at most hb_timeout + hb_interval (2.5 s); the first
        # takeover on the majority side (rank 2) waits 3 * hb_timeout (6 s)
        net.partition({m.address.host for m in ordered[:2]})
        sim.run(until=sim.now + 3.5)
        assert coordinator._queued_leaves == {m.address for m in ordered[2:]}
        assert sim.log.records(category="isis.quorum_blocked")
        net.heal()
        sim.run(until=sim.now + 20.0)
        assert not coordinator._queued_leaves
        assert not sim.log.records(category="isis.takeover")
        for m in ordered:
            assert m.view == view_before
