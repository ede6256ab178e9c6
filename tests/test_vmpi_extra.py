"""Tests for the channel monitor and the extended vMPI collectives."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.channels import ChannelMonitor
from repro.runtime import AppStatus
from repro.sdm import ProblemSpecification
from repro.taskgraph import ProblemClass
from repro.vmpi import Compute, Send, alltoall, sendrecv

from tests.conftest import make_cluster, round_robin_placement


def mpi_graph(program, instances, name="mpi"):
    graph = ProblemSpecification(name).task("t", instances=instances).build()
    node = graph.task("t")
    node.problem_class = ProblemClass.LOOSELY_SYNCHRONOUS
    node.language = "py"
    node.program = program
    return graph


def run_mpi(program, instances, n_hosts=None):
    n_hosts = n_hosts or instances
    cluster = make_cluster(n_hosts)
    graph = mpi_graph(program, instances)
    app = cluster.manager.submit(
        graph, round_robin_placement(graph, [f"ws{i}" for i in range(n_hosts)])
    )
    cluster.run()
    assert app.status is AppStatus.DONE
    return cluster, app


class TestSendrecv:
    def test_ring_shift(self):
        def program(ctx):
            right = (ctx.rank + 1) % ctx.size
            left = (ctx.rank - 1) % ctx.size
            got = yield from sendrecv(ctx, dst=right, send_value=ctx.rank, src=left)
            return got

        cluster, app = run_mpi(program, 4)
        # every rank receives its left neighbour's rank
        assert app.results("t") == [3, 0, 1, 2]

    def test_pairwise_swap_no_deadlock(self):
        def program(ctx):
            partner = ctx.rank ^ 1
            got = yield from sendrecv(ctx, dst=partner, send_value=f"r{ctx.rank}", src=partner)
            return got

        cluster, app = run_mpi(program, 4)
        assert app.results("t") == ["r1", "r0", "r3", "r2"]


class TestAlltoall:
    def test_is_a_transpose(self):
        def program(ctx):
            items = [f"{ctx.rank}->{j}" for j in range(ctx.size)]
            out = yield from alltoall(ctx, items)
            return out

        cluster, app = run_mpi(program, 3)
        results = app.results("t")
        for i in range(3):
            assert results[i] == [f"{j}->{i}" for j in range(3)]

    @settings(deadline=None, max_examples=6)
    @given(p=st.sampled_from([2, 3, 4, 6]), seed=st.integers(0, 100))
    def test_transpose_property(self, p, seed):
        import random

        rng = random.Random(seed)
        matrix = [[rng.randint(0, 99) for _ in range(p)] for _ in range(p)]

        def program(ctx):
            out = yield from alltoall(ctx, list(matrix[ctx.rank]))
            return out

        cluster, app = run_mpi(program, p, n_hosts=min(p, 4))
        results = app.results("t")
        for i in range(p):
            assert results[i] == [matrix[j][i] for j in range(p)]

    def test_wrong_item_count_fails(self):
        def program(ctx):
            yield from alltoall(ctx, [1])  # wrong length for size 3

        cluster = make_cluster(3)
        graph = mpi_graph(program, 3)
        app = cluster.manager.submit(
            graph, round_robin_placement(graph, ["ws0", "ws1", "ws2"])
        )
        cluster.run()
        assert app.status is AppStatus.FAILED


class TestChannelMonitor:
    def _chatty_app(self, cluster):
        def producer(ctx):
            for i in range(30):
                yield Send(dst="consumer[0]", data=i, channel="pipe", size=5_000)
                yield Compute(0.5)

        def consumer(ctx):
            from repro.vmpi import Recv

            for _ in range(30):
                yield Recv(channel="pipe")
            return "drained"

        spec = ProblemSpecification("chatty").task("producer").task("consumer")
        spec.stream("producer", "consumer", channel="pipe")
        graph = spec.build()
        for name, program in (("producer", producer), ("consumer", consumer)):
            node = graph.task(name)
            node.problem_class = ProblemClass.ASYNCHRONOUS
            node.language = "py"
            node.program = program
        from repro.runtime import Placement

        placement = Placement()
        placement.assign("producer", 0, "ws0")
        placement.assign("consumer", 0, "ws1")
        return cluster.manager.submit(graph, placement)

    def test_samples_traffic(self):
        cluster = make_cluster(2)
        monitor = ChannelMonitor(cluster.sim, cluster.manager.channels, interval=1.0).start()
        app = self._chatty_app(cluster)
        cluster.run()
        assert app.status is AppStatus.DONE
        series = monitor.rate_series("pipe")
        assert series, "no samples recorded"
        # ~2 msgs/s at 5000B each -> ~10 kB/s while active
        peak = max(rate for _, rate in series)
        assert 5_000 <= peak <= 20_000
        assert cluster.sim.log.records(category="channel.sample")

    def test_busiest_ranking(self):
        cluster = make_cluster(2)
        monitor = ChannelMonitor(cluster.sim, cluster.manager.channels, interval=1.0).start()
        self._chatty_app(cluster)
        cluster.run()
        busiest = monitor.busiest()
        assert busiest and busiest[0][0] == "pipe"

    def test_stop_ends_sampling(self):
        cluster = make_cluster(2)
        monitor = ChannelMonitor(cluster.sim, cluster.manager.channels, interval=1.0).start()
        cluster.run(until=2.0)
        monitor.stop()
        count = len(monitor.samples)
        cluster.run(until=10.0)
        assert len(monitor.samples) == count

    def test_quiet_channels_not_sampled(self):
        cluster = make_cluster(2)
        cluster.manager.channels.create("idle")
        monitor = ChannelMonitor(cluster.sim, cluster.manager.channels, interval=1.0).start()
        cluster.run(until=5.0)
        assert monitor.rate_series("idle") == []


    def test_channel_destroyed_between_ticks_reports_its_tail_once(self):
        """The runtime destroys an application's minted channels when it
        ends; the monitor reports what such a channel carried since the last
        tick at the next one, then forgets it."""
        from repro.channels import Port, PortDirection
        from repro.netsim import SimProcess

        cluster = make_cluster(1)
        channels = cluster.manager.channels
        monitor = ChannelMonitor(cluster.sim, channels, interval=1.0).start()
        sink = SimProcess("sink")
        cluster.hosts["ws0"].spawn(sink)
        doomed, kept = channels.create("doomed"), channels.create("kept")
        tx = Port("tx", sink.address, PortDirection.SEND)
        for chan in (doomed, kept):
            chan.attach(Port("rx", sink.address, PortDirection.RECEIVE))
            chan.send(tx, "early", size=100, to="rx")
        cluster.run(until=1.5)
        assert set(monitor._last) == {"doomed", "kept"}
        doomed.send(tx, "tail", size=300, to="rx")
        channels.destroy("doomed")
        cluster.run(until=3.5)
        assert monitor.rate_series("doomed") == [(1.0, 100.0), (2.0, 300.0)]
        assert monitor.rate_series("kept") == [(1.0, 100.0)]
        assert set(monitor._last) == {"kept"}
        # a new channel under the old name starts from zero
        channels.create("doomed").send(tx, "again", size=50, to="rx")
        cluster.run(until=4.5)
        assert monitor.rate_series("doomed")[-1] == (4.0, 50.0)


class TestCommunicator:
    def test_port_names(self):
        from repro.channels import ChannelManager
        from repro.netsim import Network, Simulator
        from repro.vmpi import Communicator

        chan = ChannelManager(Network(Simulator())).create("mpi")
        comm = Communicator(chan, size=4)
        assert [comm.port_name(r) for r in range(4)] == ["0", "1", "2", "3"]

    def test_rank_bounds(self):
        from repro.channels import ChannelManager
        from repro.netsim import Network, Simulator
        from repro.util.errors import CommunicationError
        from repro.vmpi import Communicator

        chan = ChannelManager(Network(Simulator())).create("mpi")
        comm = Communicator(chan, size=2)
        with pytest.raises(CommunicationError):
            comm.port_name(2)
        with pytest.raises(CommunicationError):
            comm.port_name(-1)
        with pytest.raises(CommunicationError):
            Communicator(chan, size=0)

    def test_task_context_instance_name(self):
        from repro.vmpi import TaskContext

        ctx = TaskContext(app="a1", task="worker", rank=3, size=8)
        assert ctx.instance_name == "a1.worker.3"
