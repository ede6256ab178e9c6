"""Reliable multicast under message loss.

The paper's prototype assumed a LAN; the reliability layer (acks +
retransmission for CBCAST) extends the
toolkit to fair-lossy links. These tests run the group over a network that
drops 15–30% of cross-host messages.
"""


from repro.isis import IsisConfig

from tests.test_isis_group import build_group


#: On lossy links the failure-detection timeout must be long enough that a
#: run of dropped heartbeats is overwhelmingly unlikely to be mistaken for
#: a crash (p_false ~ drop^(timeout/interval) per check window). 12 beats at
#: 30% loss gives ~5e-7 — the standard deployment-time tuning.
LOSSY_CFG = IsisConfig(hb_interval=0.5, hb_timeout=6.0, flush_timeout=4.0)


def lossy_group(n, drop, seed=0, settle=20.0):
    sim, net, members = build_group(n, seed=seed, settle=settle, config=LOSSY_CFG)
    net.set_drop_rate(drop)
    return sim, net, members


class TestLossyCBcast:
    def test_all_messages_eventually_delivered(self):
        sim, net, members = lossy_group(4, drop=0.2)
        for i in range(15):
            members[0].cbcast("seq", i)
        sim.run(until=sim.now + 60.0)
        for m in members:
            got = [p for (_, k, p) in m.cb_deliveries if k == "seq"]
            assert got == list(range(15)), f"{m.name} got {got}"

    def test_no_duplicate_deliveries(self):
        sim, net, members = lossy_group(4, drop=0.3, seed=3)
        for i in range(10):
            members[1].cbcast("x", i)
        sim.run(until=sim.now + 90.0)
        for m in members:
            got = [p for (_, k, p) in m.cb_deliveries if k == "x"]
            assert sorted(got) == list(range(10))
            assert len(got) == len(set(got))

    def test_causality_preserved_under_loss(self):
        sim, net, members = lossy_group(3, drop=0.25, seed=5)
        m1, m2 = members[1], members[2]
        original = m2.on_cbcast

        def reactive(sender, kind, payload):
            original(sender, kind, payload)
            if kind == "question":
                m2.cbcast("answer", "42")

        m2.on_cbcast = reactive
        m1.cbcast("question", "?")
        sim.run(until=sim.now + 60.0)
        for m in members:
            kinds = [k for (_, k, _) in m.cb_deliveries]
            assert "question" in kinds and "answer" in kinds
            assert kinds.index("question") < kinds.index("answer")

    def test_retransmissions_stop_after_acks(self):
        sim, net, members = lossy_group(3, drop=0.2, seed=7)
        members[0].cbcast("one", 1)
        sim.run(until=sim.now + 60.0)
        assert not members[0]._unacked
        assert not members[0].has_timer("rtx")


class TestLossyScheduling:
    def test_bidding_still_allocates_under_loss(self):
        """The scheduler's request path (cbcast disclosure + unicast bids)
        tolerates a lossy network: lost bids are simply absent from the
        reply set and the leader decides from what arrived, or the exec
        program retries on timeout."""
        from tests.helpers_sched import make_vce, workstation_farm
        from tests.test_scheduler import annotated_graph, launch
        from repro.scheduler.execution_program import RunState

        vce = make_vce(workstation_farm(4), seed=13, isis_config=LOSSY_CFG)
        vce.net.set_drop_rate(0.1)
        graph = annotated_graph()
        run, done = launch(vce, graph)
        vce.run(until=vce.sim.now + 120.0)
        assert run.state is RunState.DONE, run.error
