"""The parked state of the Isis failure detector.

On a calm network a steady group arms no ``hb`` timer and sends no beat; a
disturbance puts the members it concerns back on the explicit protocol.
These tests hold the contract that makes that safe:

- **differential** — the same seed run parked and forced awake, with no
  drops and with 5% drop, produces the same DONE set, results and
  per-member view sequences;
- **latency bounds** (hypothesis) — a fault at a random phase of a parked
  group is detected within ``hb_timeout + hb_interval`` and the oldest
  survivor takes over within ``hb_timeout * (1 + rank) + hb_interval``;
- **group consistency** — with one dead member still in the view the
  coordinator does not park (in an awake group, nobody does) and no live
  member is suspected;
- **re-parking** — after heal / restart the group parks again and sends
  nothing for 100 idle simulated seconds.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import VCEConfig, VirtualComputingEnvironment, workstation_cluster
from repro.faults.schedule import FaultSchedule
from repro.isis.member import IsisConfig
from repro.machines import MachineClass
from repro.netsim.network import Network
from repro.runtime.instance import InstanceState
from repro.scheduler.execution_program import RunState
from repro.soak import SoakConfig, run_soak
from repro.workloads import build_random_dag, build_stencil_graph

from tests.test_isis_group import Recorder
from tests.test_isis_group import build_group as formed_group


# ----------------------------------------------------------- differential


def _randomdag():
    graph = build_random_dag(layers=6, width=6, seed=5, min_work=2.0, max_work=20.0)
    vce = VirtualComputingEnvironment(
        workstation_cluster(4), VCEConfig(seed=5)
    ).boot()
    run = vce.submit(graph, class_map={node.name: None for node in graph})
    vce.run_to_completion(run, timeout=100_000.0)
    assert run.state is RunState.DONE, run.error
    return vce


def _stencil():
    graph = build_stencil_graph(ranks=4, cells=64, iterations=12)
    vce = VirtualComputingEnvironment(
        workstation_cluster(4), VCEConfig(seed=5)
    ).boot()
    run = vce.submit(graph, class_map={"grid": MachineClass.WORKSTATION})
    vce.run_to_completion(run, timeout=100_000.0)
    assert run.state is RunState.DONE, run.error
    return vce


def _quick_soak():
    vce, driver, report = run_soak(
        SoakConfig(
            tenants=4, apps=24, machines=12, fanout=3, seed=5, instances=(4, 8),
            work=(4.0, 8.0), arrival_span=40.0, telemetry_interval=200.0,
            settle=20.0,
        )
    )
    assert driver.finished and report.failed == 0
    return vce


def _outcome(vce):
    """(DONE set, results digest, view sequence per member) of a run."""
    done = set()
    results = hashlib.sha256()
    for app in sorted(vce.runtime.apps.values(), key=lambda app: app.graph.name):
        for (task, rank), record in sorted(app.records.items()):
            if record.state is InstanceState.DONE:
                done.add((app.graph.name, task, rank))
            results.update(f"{app.graph.name}:{task}:{rank}:{record.result!r}\n".encode())
    views: dict[str, list] = {}
    for record in vce.sim.log.records(category="isis.view"):
        views.setdefault(record.source, []).append(
            (record.get("view_id"), tuple(record.get("members")))
        )
    return done, results.hexdigest(), views


def _beats(vce):
    return vce.sim.telemetry.get("isis_beats_sent_total").value


@pytest.mark.parametrize(
    "scenario, drop",
    [
        pytest.param(scenario, drop, id=scenario.__name__ + ("" if drop else "-no-drop"))
        for scenario in (_randomdag, _stencil, _quick_soak)
        for drop in (0.05, 0.0)
    ],
)
def test_reliable_transport_parked_run_matches_forced_awake_run(
    scenario, drop, monkeypatch
):
    """With *drop*, every VCE booted inside the test drops that share of
    all transmissions once the group has formed: the transport absorbs the
    drops, so the group still parks."""
    boot = VirtualComputingEnvironment.boot

    def boot_lossy(vce):
        booted = boot(vce)
        if drop:
            vce.network.set_drop_rate(drop)
        return booted

    monkeypatch.setattr(VirtualComputingEnvironment, "boot", boot_lossy)
    parked = scenario()
    assert all(daemon.membership.parked for daemon in parked.daemons.values())

    # the detector's calm predicate never holds: no group ever parks
    monkeypatch.setattr(Network, "calm_for", lambda network, members: False)
    awake = scenario()
    assert not any(daemon.membership.parked for daemon in awake.daemons.values())
    # a quiet run: nobody was falsely suspected, so the view sequences
    # must match as well as the results
    assert not awake.sim.log.records(category="isis.failure_detected")
    assert awake.network.messages_lost == 0

    # drops really happened, and parking really removed the beats
    assert (awake.network.retransmissions > 0) == bool(drop)
    assert _beats(awake) > 10 * _beats(parked)
    assert _outcome(parked) == _outcome(awake)


# -------------------------------------------------------- latency bounds


def build_group(n, seed=0, require_majority=False, drop_rate=None):
    """n members on n hosts, settled: one view, everyone parked.  Members
    are returned in rank order.  With a *drop_rate* the group settles again
    after that rate is set."""
    sim, net, members = formed_group(
        n, seed, IsisConfig(require_majority=require_majority)
    )
    if drop_rate is not None:
        net.set_drop_rate(drop_rate)
        deadline = sim.now + 30.0
        while not all(m.membership.parked for m in members) and sim.now < deadline:
            sim.run(until=sim.now + 0.25)
    view = members[0].membership.view
    assert all(m.membership.view == view for m in members)
    assert all(m.membership.parked for m in members)
    by_address = {m.address: m for m in members}
    return sim, net, [by_address[a] for a in view.members]


def inject(net, fault, victim):
    """The fault as the chaos controller would apply it; the drop window
    silences the whole network rather than one host."""
    host = victim.host
    if fault == "crash":
        host.crash()
    elif fault == "kill":
        host.kill(victim.name)
    elif fault == "partition":
        net.partition({host.name})
    else:
        net.set_drop_rate(1.0)


def times(sim, category, **match):
    return [
        record.time
        for record in sim.log.records(category=category)
        if all(record.get(key) == value for key, value in match.items())
    ]


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(3, 5),
    fault=st.sampled_from(["crash", "kill", "partition", "drop"]),
    victim_rank=st.integers(0, 4),
    phase=st.floats(0.0, 1.0, exclude_max=True),
    require_majority=st.booleans(),
    seed=st.integers(0, 3),
    # None: no drops; a rate: parked under that drop rate
    drop_rate=st.one_of(st.none(), st.floats(0.0, 0.1, exclude_min=True)),
)
def test_fault_in_parked_group_detected_within_bounds(
    n, fault, victim_rank, phase, require_majority, seed, drop_rate
):
    sim, net, members = build_group(n, seed, require_majority, drop_rate)
    cfg = members[0].membership.config
    victim = members[victim_rank % n]
    sent_while_parked = net.messages_sent
    sim.run(until=sim.now + phase)
    assert net.messages_sent == sent_while_parked
    fault_at = sim.now
    sim.schedule(0.0, lambda: inject(net, fault, victim))
    sim.run(until=fault_at + cfg.hb_timeout * 3 + cfg.hb_interval)
    # nothing is declared failed earlier than a full timeout of silence
    assert all(
        t > fault_at + cfg.hb_timeout
        for t in times(sim, "isis.failure_detected") + times(sim, "isis.takeover")
    )
    detect_by = fault_at + cfg.hb_timeout + cfg.hb_interval
    takeover_by = fault_at + cfg.hb_timeout * 2 + cfg.hb_interval
    coordinator, successor = members[0], members[1]
    if fault == "drop" or victim is not coordinator:
        suspects = members[1:] if fault == "drop" else [victim]
        for suspect in suspects:
            detected = times(
                sim, "isis.failure_detected", failed=str(suspect.address)
            )
            assert detected and detected[0] <= detect_by, (suspect, detected)
    if fault == "drop" or victim is coordinator:
        taken = times(
            sim, "isis.takeover", new_coordinator=str(successor.address)
        )
        assert taken and taken[0] <= takeover_by, taken
    if fault != "drop":
        # nobody but the victim is ever suspected by the side that kept
        # its coordinator (or elected the successor)
        survivors = {str(m.address) for m in members if m is not victim}
        observer = successor if victim is coordinator else coordinator
        wrongly = [
            record
            for record in sim.log.records(category="isis.failure_detected")
            if record.source == str(observer.address)
            and record.get("failed") in survivors
        ]
        assert not wrongly


# ------------------------------------------------------ group consistency


def test_member_parks_only_on_a_current_order():
    """A park order is void once anything disturbed the network after it
    was sent: the member that receives it stays awake."""
    sim, net, members = build_group(3)
    net.set_latency_factor(1.0)  # an edge that leaves the network calm
    assert net.calm_for(m.address for m in members)
    assert not any(m.membership.parked for m in members)
    # run tick by tick until the coordinator parks, then void its order
    # while the beats that carry it are still in flight
    while not members[0].membership.parked:
        sim.run(until=sim.now + 1e-4)
    assert not any(m.membership.parked for m in members[1:])
    net.set_latency_factor(1.0)
    sim.run(until=sim.now + 0.01)  # the stale orders have arrived by now
    assert not any(m.membership.parked for m in members)
    sim.run(until=sim.now + 5.0)
    assert all(m.membership.parked for m in members)
    assert not sim.log.records(category="isis.failure_detected")


def test_beat_in_flight_at_a_kill_vouches_for_nobody():
    """A Heartbeat that left its sender before the sender was killed and
    arrives after must not count as "heard from since": the coordinator
    would park with a dead member in its view and never find out."""
    sim, net, members = build_group(3)
    cfg = members[0].membership.config
    victim = members[1]
    net.set_latency_factor(1.0)  # wake everyone
    ticks = victim.membership._hb_ticks
    while victim.membership._hb_ticks == ticks:
        sim.run(until=sim.now + 1e-4)
    sent = net.messages_delivered
    victim.host.kill(victim.name)  # its beat is still on the wire
    fault_at = sim.now
    sim.run(until=fault_at + 0.01)
    assert net.messages_delivered > sent
    sim.run(until=fault_at + cfg.hb_timeout + cfg.hb_interval + 0.1)
    detected = times(sim, "isis.failure_detected", failed=str(victim.address))
    assert detected and fault_at + cfg.hb_timeout - cfg.hb_interval < detected[0]


@pytest.mark.parametrize("fault", ["crash", "kill"])
def test_named_death_under_the_reliable_transport_wakes_only_the_coordinator(
    fault,
):
    """The asymmetric case on a parked group: one member is dead and not
    yet evicted.  A crash or kill names the dying member, so only the
    coordinator wakes, and it watches that member alone; everyone else
    keeps its park order and sends nothing.  The eviction's view change
    installs parked (the crashed host is still down; the survivors' ViewAcks
    vouch for them), and the departed member is probed five times."""
    sim, net, members = build_group(4, drop_rate=0.05)
    cfg = members[0].membership.config
    coordinator, victim = members[0], members[2]
    others = [m for m in members if m is not coordinator and m is not victim]
    old_view = coordinator.membership.view.view_id
    if fault == "crash":
        victim.host.crash()
    else:
        victim.host.kill(victim.name)
    ticks = [m.membership._hb_ticks for m in others]
    fault_at = sim.now
    while coordinator.membership.view.view_id == old_view:
        assert not coordinator.membership.parked
        assert all(m.membership.parked for m in others), sim.now
        sim.run(until=sim.now + 0.05)
        assert sim.now <= fault_at + cfg.hb_timeout + cfg.hb_interval + 0.1
    assert sim.now > fault_at + cfg.hb_timeout
    assert [m.membership._hb_ticks for m in others] == ticks
    sim.run(until=sim.now + 0.1)  # the NewView has arrived
    assert all(victim.address not in m.membership.view for m in others)
    assert coordinator.membership.parked and all(m.membership.parked for m in others)
    failed = {r.get("failed") for r in sim.log.records(category="isis.failure_detected")}
    assert failed == {str(victim.address)}
    assert not sim.log.records(category="isis.takeover")
    sent = net.messages_sent
    sim.run(until=sim.now + 100.0)
    # five probes of the departed member, and nothing else
    assert net.messages_sent - sent == 5


@pytest.mark.parametrize("fault", ["kill", "crash-recover"])
def test_dead_member_in_view_keeps_whole_group_awake(fault):
    """The asymmetric case on an awake group: one member is dead and not
    yet evicted while every member is awake, either because an edge that
    names nobody woke the group just before a kill, or because the host
    recovered right after its crash (an edge of its own).  Parking is the
    coordinator's decision, so nobody parks while the dead member is in
    the view (a member that did would go stale and be suspected), no live
    member is suspected, and the group parks again once the eviction view
    is installed."""
    sim, net, members = build_group(4)
    cfg = members[0].membership.config
    coordinator, victim = members[0], members[2]
    survivors = [m for m in members if m is not victim]
    old_view = coordinator.membership.view.view_id
    if fault == "kill":
        net.set_latency_factor(1.0)  # wake everyone
        victim.host.kill(victim.name)
    else:
        victim.host.crash()
        victim.host.recover()
    assert not any(m.membership.parked for m in survivors)
    fault_at = sim.now
    evicted_at = None
    while sim.now < fault_at + 10.0:
        sim.run(until=sim.now + 0.05)
        installed = all(m.membership.view.view_id > old_view for m in survivors)
        if not installed:
            assert not any(m.membership.parked for m in survivors), sim.now
        elif evicted_at is None:
            evicted_at = sim.now
    assert evicted_at is not None
    assert fault_at + cfg.hb_timeout < evicted_at
    assert evicted_at <= fault_at + cfg.hb_timeout + cfg.hb_interval + 0.1
    failed = {r.get("failed") for r in sim.log.records(category="isis.failure_detected")}
    assert failed == {str(victim.address)}
    assert not sim.log.records(category="isis.takeover")
    assert all(victim.address not in m.membership.view for m in survivors)
    assert all(m.membership.parked for m in survivors)
    ticks = [m.membership._hb_ticks for m in survivors]
    sim.run(until=sim.now + 100.0)
    assert [m.membership._hb_ticks for m in survivors] == ticks


def test_coordinator_death_wakes_every_member_under_the_reliable_transport():
    sim, net, members = build_group(4, drop_rate=0.05)
    members[0].host.crash()
    assert not any(m.membership.parked for m in members[1:])


def test_parked_group_probes_a_departed_member_that_leads_its_own_group():
    """Departed members no longer keep the group awake, but the parked
    coordinator still probes them, on a backoff of its own: a member that
    comes back leading a group of its own (a restarted process that found
    no contact) is found and merged."""
    sim, net, members = build_group(3, drop_rate=0.05)
    coordinator, victim = members[0], members[2]
    victim.host.kill(victim.name)
    sim.run(until=sim.now + 5.0)
    assert victim.address not in coordinator.membership.view
    assert coordinator.membership.parked and members[1].membership.parked
    rival = Recorder(victim.name)  # founds a group alone
    victim.host.spawn(rival)
    sim.run(until=sim.now + 30.0)
    assert sim.log.records(category="isis.group_merge")
    assert (
        rival.membership.view == coordinator.membership.view
        and len(coordinator.membership.view) == 3
    )
    assert all(m.membership.parked for m in (coordinator, members[1], rival))


# ------------------------------------------------------------- re-parking


def _vce(**config):
    return VirtualComputingEnvironment(
        workstation_cluster(4), VCEConfig(seed=2, **config)
    ).boot()


def _assert_idle_and_silent(vce):
    assert vce.network.calm_for(daemon.address for daemon in vce.daemons.values())
    assert all(daemon.membership.parked for daemon in vce.daemons.values())
    assert len({daemon.membership.view for daemon in vce.daemons.values()}) == 1
    sent, ticks = vce.network.messages_sent, vce.sim.telemetry.get("isis_hb_ticks_total").value
    vce.run(until=vce.sim.now + 100.0)
    assert vce.network.messages_sent == sent
    assert vce.sim.telemetry.get("isis_hb_ticks_total").value == ticks


def test_restart_rejoins_and_parks_again():
    """The crash names the daemon it kills, so only the coordinator wakes,
    and the eviction installs parked; after the reboot (an edge that names
    nobody) the new daemon rejoins and the group parks again."""
    vce = _vce()
    daemons = vce.daemons
    assert all(daemon.membership.parked for daemon in daemons.values())
    leader = vce.leader_of(MachineClass.WORKSTATION)
    bystanders = [d for d in daemons.values() if d is not leader and d.host.name != "ws2"]
    schedule = FaultSchedule("bounce")
    schedule.bounce(1.0, "ws2", down_for=6.0)
    vce.chaos(schedule)
    start = vce.sim.now
    while vce.sim.now < start + 6.5:
        vce.run(until=vce.sim.now + 0.05)
        assert all(daemon.membership.parked for daemon in bystanders), vce.sim.now
    assert not vce.network.calm_for(daemon.address for daemon in daemons.values())
    assert "ws2" not in {m.host for m in leader.membership.view.members}
    assert leader.membership.parked
    vce.run(until=vce.sim.now + 30.0)
    assert "ws2" in {
        m.host for m in vce.leader_of(MachineClass.WORKSTATION).membership.view.members
    }
    _assert_idle_and_silent(vce)


@pytest.mark.parametrize("require_majority", [False, True])
def test_heal_merges_and_parks_again(require_majority):
    """An even split: without quorum each half forms a group of its own,
    and the two merge after the heal; with quorum neither half may install
    a view, so the old one outlasts the cut.  Either way nobody parks while
    the cut lasts, and afterwards the group is whole and parks again."""
    vce = _vce(isis=IsisConfig(require_majority=require_majority))
    before = vce.leader_of(MachineClass.WORKSTATION).membership.view
    schedule = FaultSchedule("cut")
    schedule.partition_window(1.0, 8.0, ["ws2", "ws3"])
    vce.chaos(schedule)
    vce.run(until=vce.sim.now + 6.0)
    assert not any(daemon.membership.parked for daemon in vce.daemons.values())
    vce.run(until=vce.sim.now + 60.0)
    merged = vce.sim.log.records(category="isis.group_merge")
    assert bool(merged) != require_majority
    after = vce.leader_of(MachineClass.WORKSTATION).membership.view
    assert (after == before) == require_majority and len(after) == 4
    _assert_idle_and_silent(vce)


@pytest.mark.parametrize("require_majority", [False, True])
def test_partition_keeps_a_reliable_group_awake_and_probes_find_the_rival(
    require_majority,
):
    """The transport absorbs drops, not partitions: nobody parks while the
    cut lasts, although each side evicts the other.  Departed members do
    not keep the group awake, so after the heal it is the coordinators'
    backed-off probes that find the rival group (without quorum the
    cut-off host leads a group of its own); the group merges and parks
    again."""
    vce = _vce(isis=IsisConfig(require_majority=require_majority))
    schedule = FaultSchedule("cut")
    schedule.partition_window(1.0, 8.0, ["ws3"])
    vce.chaos(schedule)
    vce.run(until=vce.sim.now + 6.0)
    leader = vce.leader_of(MachineClass.WORKSTATION)
    assert "ws3" not in {m.host for m in leader.membership.view.members}
    assert not any(daemon.membership.parked for daemon in vce.daemons.values())
    vce.run(until=vce.sim.now + 60.0)
    assert len(vce.leader_of(MachineClass.WORKSTATION).membership.view) == 4
    _assert_idle_and_silent(vce)


@pytest.mark.parametrize("hosts, cut", [(4, ["ws0"]), (5, ["ws0", "ws1"])])
def test_cut_off_coordinator_learns_it_was_evicted(hosts, cut):
    """Under quorum a coordinator cut off with a minority is blocked; the
    majority's coordinator answers its beats after the heal with its own,
    for a newer view, and that is how the blocked one learns it was
    evicted: it rejoins, and within ``hb_timeout`` of the heal the group
    is whole and parked."""
    isis = IsisConfig(require_majority=True)
    vce = VirtualComputingEnvironment(
        workstation_cluster(hosts), VCEConfig(seed=2, isis=isis)
    ).boot()
    schedule = FaultSchedule("cut")
    schedule.partition_window(1.0, 8.0, cut)
    vce.chaos(schedule)
    vce.run(until=vce.sim.now + 1.0 + 8.0 + isis.hb_timeout)
    assert len(vce.leader_of(MachineClass.WORKSTATION).membership.view) == hosts
    _assert_idle_and_silent(vce)


def test_quorum_blocked_coordinator_logs_each_suspicion_once():
    """A coordinator cut off alone under quorum suspects each member it
    cannot hear once and reports itself blocked once, not at every tick of
    a long cut; after the heal it learns it was evicted and rejoins."""
    isis = IsisConfig(require_majority=True)
    vce = VirtualComputingEnvironment(
        workstation_cluster(4), VCEConfig(seed=2, isis=isis)
    ).boot()
    schedule = FaultSchedule("cut")
    schedule.partition_window(1.0, 30.0, ["ws0"])
    vce.chaos(schedule)
    vce.run(until=vce.sim.now + 1.0 + 30.0 + isis.hb_timeout)
    cut_off = str(vce.daemons["ws0"].address)

    def logged(category):
        return [r for r in vce.sim.log.records(category=category) if r.source == cut_off]

    suspected = [r.get("failed") for r in logged("isis.failure_detected")]
    assert sorted(suspected) == sorted(
        str(d.address) for name, d in vce.daemons.items() if name != "ws0"
    )
    assert len(logged("isis.quorum_blocked")) == 1
    assert len(vce.leader_of(MachineClass.WORKSTATION).membership.view) == 4


def test_quorum_blocked_is_logged_once_per_cut():
    """Two short cuts of the coordinator, each healed before any junior
    takes over: the heartbeats that retract its suspicions end the blocked
    episode, so each cut is reported once and no view changes."""
    isis = IsisConfig(require_majority=True)
    vce = VirtualComputingEnvironment(
        workstation_cluster(4), VCEConfig(seed=2, isis=isis)
    ).boot()
    view = vce.daemons["ws0"].membership.view
    schedule = FaultSchedule("cuts")
    schedule.partition_window(1.0, 3.0, ["ws0"])
    schedule.partition_window(20.0, 3.0, ["ws0"])
    vce.chaos(schedule)
    vce.run(until=vce.sim.now + 40.0)
    blocked = vce.sim.log.records(category="isis.quorum_blocked")
    assert [r.source for r in blocked] == [str(vce.daemons["ws0"].address)] * 2
    assert vce.daemons["ws0"].membership.view is view


# ------------------------------------------------------------ idle kernel


def test_run_without_deadline_returns_on_an_idle_cluster():
    """``Simulator.run()`` with no ``until`` stops when only daemon events
    remain (the telemetry sampler's grid is not even an event); heartbeats
    used to keep it alive forever."""
    vce = _vce()
    before = vce.sim.now
    vce.sim.run(max_events=10_000)  # SimulationError if it never goes idle
    assert vce.sim.now == before
    graph = build_random_dag(layers=3, width=3, seed=2)
    run = vce.submit(graph, class_map={node.name: None for node in graph})
    vce.sim.run(max_events=100_000)
    assert run.state is RunState.DONE
    assert all(daemon.membership.parked for daemon in vce.daemons.values())
