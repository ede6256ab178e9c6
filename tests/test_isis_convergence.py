"""Randomized membership convergence.

A seeded adversary performs a random sequence of joins, crashes and
recoveries against a process group; after a quiescence period, every
surviving member must agree on a single view containing exactly the
survivors, with the oldest survivor as coordinator. Run across several
seeds — a deterministic stand-in for stateful property testing of the
membership protocol.
"""

import random

import pytest

from repro.faults import views_converged
from repro.netsim import Network, Simulator

from tests.test_isis_group import Recorder


def live_members(members):
    """Members whose process is up and holds a view."""
    return [m for m in members if m.alive and m.membership.joined]


def adversarial_run(seed: int, operations: int = 12):
    rng = random.Random(seed)
    sim = Simulator(seed)
    net = Network(sim)
    members = []
    counter = [0]

    def spawn_member(host=None):
        i = counter[0]
        counter[0] += 1
        if host is None:
            host = net.add_host(f"h{i}")
        contacts = None
        alive = live_members(members)
        if alive:
            contacts = [m.address for m in rng.sample(alive, k=min(2, len(alive)))]
        elif members:
            contacts = [members[0].address]
        member = Recorder(f"m{i}", contacts=contacts)
        host.spawn(member)
        members.append(member)
        return member

    spawn_member()
    sim.run(until=5.0)

    for _ in range(operations):
        candidates = live_members(members)
        down = list(dict.fromkeys(m.host for m in members if not m.host.up))
        op = rng.choice(["join", "join", "crash", "recover"])
        if op == "crash" and len(candidates) > 2:
            rng.choice(candidates).host.crash()
        elif op == "recover" and down:
            # a recovered machine starts a fresh member, as a rebooted
            # host starts a new daemon
            host = rng.choice(down)
            host.recover()
            spawn_member(host)
        else:
            spawn_member()
        sim.run(until=sim.now + rng.uniform(1.0, 8.0))

    # quiescence: generous time for detection + takeover chains
    sim.run(until=sim.now + 120.0)
    return sim, members


@pytest.mark.parametrize("seed", [1, 2, 3, 5, 8, 13, 21])
def test_membership_converges_under_random_churn(seed):
    sim, members = adversarial_run(seed)
    live = live_members(members)
    assert live, f"seed {seed}: everyone died (adversary too strong?)"
    assert views_converged([m.membership for m in live]), (
        f"seed {seed}: views diverged: "
        + str({
            m.name: (m.membership.view.view_id, [str(x) for x in m.membership.view.members])
            for m in live
        })
    )
    view = live[0].membership.view
    # the agreed view contains exactly the live members
    assert {m.address for m in live} == set(view.members), (
        f"seed {seed}: view {view} vs live {[m.name for m in live]}"
    )
    # exactly one coordinator, and it is the view's oldest member
    coordinators = [m for m in live if m.membership.is_coordinator]
    assert len(coordinators) == 1
    assert coordinators[0].address == view.coordinator


@pytest.mark.parametrize("seed", [4, 9])
def test_multicast_works_after_churn(seed):
    """A fan-out from the youngest survivor reaches every live member."""
    sim, members = adversarial_run(seed)
    live = live_members(members)
    sender = live[-1]
    sender.probe("post-churn")
    sim.run(until=sim.now + 10.0)
    assert sorted(sender.pongs["post-churn"], key=str) == sorted(
        (m.address for m in live), key=str
    )
    for m in live:
        assert "post-churn" in m.pings_seen
