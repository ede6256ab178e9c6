"""Partition behaviour: split-brain without quorum, safety with it.

The paper's prototype ran on a single LAN and did not address partitions;
the `require_majority` extension adds the standard quorum rule. These
tests document both modes.
"""


from repro.isis import IsisConfig
from repro.netsim import Address, Network, Simulator

from tests.test_isis_group import Recorder


def build_partitionable_group(n, seed=0, config=None, settle=10.0):
    sim = Simulator(seed)
    net = Network(sim)
    members = []
    founder = Address("h0", "m0")
    for i in range(n):
        host = net.add_host(f"h{i}")
        member = Recorder(
            f"m{i}", contacts=(None if i == 0 else [founder]), config=config
        )
        host.spawn(member)
        members.append(member)
    sim.run(until=settle)
    assert all(m.membership.joined for m in members)
    return sim, net, members


def seniority_ordered(members):
    by_addr = {m.address: m for m in members}
    return [by_addr[a] for a in members[0].membership.view.members]


class TestWithoutQuorum:
    def test_partition_causes_split_brain(self):
        """Documented limitation of the paper-faithful mode: both sides
        evict each other and elect their own leaders."""
        sim, net, members = build_partitionable_group(5)
        ordered = seniority_ordered(members)
        majority = {m.address.host for m in ordered[:3]}
        minority = {m.address.host for m in ordered[3:]}
        net.partition(majority, minority)
        sim.run(until=sim.now + 60.0)
        major_views = {m.membership.view.members for m in ordered[:3]}
        minor_views = {m.membership.view.members for m in ordered[3:]}
        assert len(major_views) == 1 and len(minor_views) == 1
        # two disjoint groups, each with its own coordinator: split brain
        assert major_views != minor_views
        assert ordered[0].membership.is_coordinator
        assert ordered[3].membership.is_coordinator


class TestWithQuorum:
    CFG = IsisConfig(require_majority=True)

    def test_minority_side_stalls(self):
        sim, net, members = build_partitionable_group(5, config=self.CFG)
        ordered = seniority_ordered(members)
        view_before = ordered[0].membership.view
        majority = {m.address.host for m in ordered[:3]}
        minority = {m.address.host for m in ordered[3:]}
        net.partition(majority, minority)
        sim.run(until=sim.now + 60.0)
        # majority side installed a 3-member view
        for m in ordered[:3]:
            assert len(m.membership.view) == 3
            assert m.membership.view.coordinator == ordered[0].address
        # minority side is blocked: it still holds the old 5-member view
        for m in ordered[3:]:
            assert m.membership.view.view_id == view_before.view_id
            assert len(m.membership.view) == 5
            assert not m.membership.is_coordinator
        blocked = sim.log.records(category="isis.quorum_blocked")
        assert blocked, "minority never hit the quorum guard"

    def test_a_junior_cut_off_with_a_minority_never_leads(self):
        """Rank 1 cut off with rank 4 times out on the coordinator and takes
        over.  Its view would name ranks 2 and 3, which it cannot reach, so
        it installs only once a majority has acked: there is never more
        than one coordinator, and after the heal one view again."""
        sim, net, members = build_partitionable_group(5, config=self.CFG)
        ordered = seniority_ordered(members)
        cut = {ordered[1].address.host, ordered[4].address.host}
        net.partition({m.address.host for m in ordered} - cut, cut)
        for _ in range(400):
            sim.run(until=sim.now + 0.1)
            leading = [m for m in ordered if m.membership.is_coordinator]
            assert leading == [ordered[0]]
        assert [len(m.membership.view) for m in ordered[:4:2]] == [3, 3]
        blocked = sim.log.records(category="isis.quorum_blocked")
        assert {r.source for r in blocked} == {str(ordered[1].address), str(ordered[4].address)}
        net.heal()
        sim.run(until=sim.now + 60.0)
        assert {m.membership.view.members for m in members} == {
            members[0].membership.view.members
        }
        assert len(members[0].membership.view) == 5
        assert members[0].membership.view.coordinator == ordered[0].address

    def test_heal_evicts_and_rejoins_minority(self):
        sim, net, members = build_partitionable_group(5, config=self.CFG)
        ordered = seniority_ordered(members)
        majority = {m.address.host for m in ordered[:3]}
        minority = {m.address.host for m in ordered[3:]}
        net.partition(majority, minority)
        sim.run(until=sim.now + 40.0)
        net.heal()
        sim.run(until=sim.now + 60.0)
        # everyone converges on one 5-member view led by the original
        # coordinator; the minority members rejoined after eviction
        final_views = {m.membership.view.members for m in members if m.membership.joined}
        assert len(final_views) == 1
        assert len(members[0].membership.view) == 5
        assert members[0].membership.view.coordinator == ordered[0].address
        evictions = sim.log.records(category="isis.evicted")
        assert len(evictions) >= 2  # both minority members rejoined

    def test_group_request_still_works_after_heal(self):
        """After the heal, a fan-out from the coordinator reaches all five."""
        sim, net, members = build_partitionable_group(5, config=self.CFG)
        ordered = seniority_ordered(members)
        net.partition(
            {m.address.host for m in ordered[:3]},
            {m.address.host for m in ordered[3:]},
        )
        sim.run(until=sim.now + 40.0)
        net.heal()
        sim.run(until=sim.now + 60.0)
        ordered[0].probe("state?")
        sim.run(until=sim.now + 10.0)
        assert len(ordered[0].pongs["state?"]) == 5

    def test_majority_side_keeps_multicasting_during_partition(self):
        """During the partition a fan-out from the majority side reaches
        exactly the majority side: its view no longer holds the others."""
        sim, net, members = build_partitionable_group(5, config=self.CFG)
        ordered = seniority_ordered(members)
        net.partition(
            {m.address.host for m in ordered[:3]},
            {m.address.host for m in ordered[3:]},
        )
        sim.run(until=sim.now + 40.0)
        ordered[1].probe("during-partition")
        sim.run(until=sim.now + 5.0)
        for m in ordered[:3]:
            assert "during-partition" in m.pings_seen
        for m in ordered[3:]:
            assert "during-partition" not in m.pings_seen
        assert set(ordered[1].pongs["during-partition"]) == {
            m.address for m in ordered[:3]
        }
