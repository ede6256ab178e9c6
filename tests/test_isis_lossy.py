"""The group and the scheduler under message drops.

The paper's prototype assumed a LAN.  These tests run over a network that
drops a share of cross-host transmissions; the transport retransmits each
one, so a drop arrives as extra latency on its pair, not as a lost message.
"""

from repro.isis import IsisConfig


#: On lossy links the failure-detection timeout must be long enough that a
#: run of retransmission back-offs is overwhelmingly unlikely to be
#: mistaken for a crash: a timeout of 12 beat intervals outlasts several
#: consecutive drops of one beat — the standard deployment-time tuning.
LOSSY_CFG = IsisConfig(hb_interval=0.5, hb_timeout=6.0)


class TestLossyScheduling:
    def test_bidding_still_allocates_under_loss(self):
        """The scheduler's request path (disclosure probes + bid replies)
        tolerates a lossy network: a late bid is absent from the reply set
        and the leader decides from what arrived, or the exec program
        retries on timeout."""
        from tests.helpers_sched import make_vce, workstation_farm
        from tests.test_scheduler import annotated_graph, launch
        from repro.scheduler.execution_program import RunState

        vce = make_vce(workstation_farm(4), seed=13, isis_config=LOSSY_CFG)
        vce.net.set_drop_rate(0.1)
        graph = annotated_graph()
        run, done = launch(vce, graph)
        vce.run(until=vce.sim.now + 120.0)
        assert run.state is RunState.DONE, run.error
