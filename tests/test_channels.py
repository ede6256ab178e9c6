"""Tests for channels, ports, splitting/interposition, and redirection."""

import pytest

from repro.channels import (
    AuthenticationInterposer,
    ChannelDelivery,
    ChannelManager,
    DataConversionInterposer,
    Port,
    PortDirection,
)
from repro.netsim import Address, Network, SimProcess, Simulator
from repro.util.errors import CommunicationError


class Sink(SimProcess):
    """Records channel deliveries."""

    def __init__(self, name):
        super().__init__(name)
        self.got = []

    def on_message(self, src, payload):
        if isinstance(payload, ChannelDelivery):
            self.got.append((self.now, payload))


def rig(n_receivers=2, seed=0):
    sim = Simulator(seed)
    net = Network(sim)
    mgr = ChannelManager(net)
    chan = mgr.create("data")
    sender_host = net.add_host("sender-host")
    sender = Sink("sender")
    sender_host.spawn(sender)
    send_port = Port("tx", Address("sender-host", "sender"), PortDirection.SEND)
    chan.attach(send_port)
    sinks = []
    for i in range(n_receivers):
        host = net.add_host(f"rh{i}")
        sink = Sink(f"sink{i}")
        host.spawn(sink)
        chan.attach(Port(f"rx{i}", sink.address, PortDirection.RECEIVE))
        sinks.append(sink)
    return sim, net, mgr, chan, send_port, sinks


class TestChannelBasics:
    def test_group_delivery_to_all_receivers(self):
        sim, net, mgr, chan, tx, sinks = rig(3)
        chan.send(tx, {"v": 1}, size=100)
        sim.run()
        for sink in sinks:
            assert len(sink.got) == 1
            assert sink.got[0][1].data == {"v": 1}
            assert sink.got[0][1].sender_port == "tx"

    def test_directed_delivery_single_receiver(self):
        sim, net, mgr, chan, tx, sinks = rig(3)
        chan.send(tx, "solo", to="rx1")
        sim.run()
        assert [len(s.got) for s in sinks] == [0, 1, 0]

    def test_directed_to_unknown_port_drops(self):
        sim, net, mgr, chan, tx, sinks = rig(2)
        chan.send(tx, "x", to="ghost")
        sim.run()
        assert all(not s.got for s in sinks)
        assert chan.dropped_no_receiver == 1

    def test_no_receivers_drop_counted(self):
        sim = Simulator()
        net = Network(sim)
        chan = ChannelManager(net).create("c")
        host = net.add_host("h")
        p = Sink("p")
        host.spawn(p)
        chan.send(Port("tx", p.address, PortDirection.SEND), "data")
        sim.run()
        assert chan.dropped_no_receiver == 1

    def test_counters(self):
        sim, net, mgr, chan, tx, sinks = rig(2)
        chan.send(tx, "a", size=10)
        chan.send(tx, "b", size=20)
        sim.run()
        assert chan.messages == 2 and chan.bytes == 30

    def test_duplicate_port_rejected(self):
        sim, net, mgr, chan, tx, sinks = rig(1)
        with pytest.raises(CommunicationError):
            chan.attach(Port("rx0", sinks[0].address, PortDirection.RECEIVE))

    def test_same_name_opposite_directions_ok(self):
        sim, net, mgr, chan, tx, sinks = rig(1)
        chan.attach(Port("rx0", sinks[0].address, PortDirection.SEND))  # no raise

    def test_detach_stops_delivery(self):
        sim, net, mgr, chan, tx, sinks = rig(2)
        chan.detach("rx0")
        chan.send(tx, "x")
        sim.run()
        assert not sinks[0].got and sinks[1].got


class TestRedirection:
    def test_rebind_moves_deliveries(self):
        sim, net, mgr, chan, tx, sinks = rig(1)
        new_host = net.add_host("new-host")
        replacement = Sink("replacement")
        new_host.spawn(replacement)
        chan.rebind("rx0", replacement.address)
        chan.send(tx, "after-move")
        sim.run()
        assert not sinks[0].got
        assert replacement.got and replacement.got[0][1].data == "after-move"

    def test_rebind_unknown_port_raises(self):
        sim, net, mgr, chan, tx, sinks = rig(1)
        with pytest.raises(CommunicationError):
            chan.rebind("ghost", sinks[0].address)

    def test_rebind_everywhere(self):
        sim = Simulator()
        net = Network(sim)
        mgr = ChannelManager(net)
        h1, h2 = net.add_host("h1"), net.add_host("h2")
        old, new = Sink("old"), Sink("new")
        h1.spawn(old)
        h2.spawn(new)
        c1, c2 = mgr.create("c1"), mgr.create("c2")
        c1.attach(Port("p", old.address, PortDirection.RECEIVE))
        c2.attach(Port("q", old.address, PortDirection.RECEIVE))
        moved = mgr.rebind_everywhere(old.address, new.address)
        assert moved == 2
        tx = Port("tx", old.address, PortDirection.SEND)
        c1.send(tx, 1)
        c2.send(tx, 2)
        sim.run()
        assert len(new.got) == 2 and not old.got


class TestInterposition:
    def test_identity_interposer_passes_through(self):
        from repro.channels.interpose import Interposer

        sim, net, mgr, chan, tx, sinks = rig(2)
        ihost = net.add_host("ihost")
        inter = Interposer("relay")
        ihost.spawn(inter)
        chan.split(inter)
        sim.run()  # let interposer start
        chan.send(tx, "through")
        sim.run()
        for sink in sinks:
            assert sink.got and sink.got[0][1].data == "through"
        assert inter.processed == 1

    def test_unspawned_interposer_rejected(self):
        from repro.channels.interpose import Interposer

        sim, net, mgr, chan, tx, sinks = rig(1)
        with pytest.raises(CommunicationError):
            chan.split(Interposer("floating"))

    def test_authentication_drops_unlisted_sender(self):
        sim, net, mgr, chan, tx, sinks = rig(1)
        ihost = net.add_host("ihost")
        auth = AuthenticationInterposer("auth", allowed_senders={"trusted"})
        ihost.spawn(auth)
        chan.split(auth)
        sim.run()
        chan.send(tx, "bad")  # tx port name is "tx", not allowed
        sim.run()
        assert not sinks[0].got
        assert auth.dropped == 1
        trusted = Port("trusted", tx.owner, PortDirection.SEND)
        chan.attach(trusted)
        chan.send(trusted, "good")
        sim.run()
        assert sinks[0].got and sinks[0].got[0][1].data == "good"

    def test_data_conversion_charges_delay_and_resizes(self):
        sim, net, mgr, chan, tx, sinks = rig(1)
        ihost = net.add_host("ihost")
        conv = DataConversionInterposer(
            "conv", seconds_per_byte=1e-3, size_factor=2.0, convert=lambda d: d.upper()
        )
        ihost.spawn(conv)
        chan.split(conv)
        sim.run()
        t0 = sim.now
        chan.send(tx, "abc", size=1000)
        sim.run()
        delivery = sinks[0].got[0]
        assert delivery[1].data == "ABC"
        assert delivery[1].size == 2000
        assert delivery[0] - t0 >= 1.0  # 1000 bytes * 1e-3 s/byte

    def test_chained_interposers_apply_in_order(self):
        sim, net, mgr, chan, tx, sinks = rig(1)
        h1, h2 = net.add_host("i1"), net.add_host("i2")
        first = DataConversionInterposer("first", convert=lambda d: d + "-1")
        second = DataConversionInterposer("second", convert=lambda d: d + "-2")
        h1.spawn(first)
        h2.spawn(second)
        chan.split(first)
        chan.split(second)
        sim.run()
        chan.send(tx, "m")
        sim.run()
        assert sinks[0].got[0][1].data == "m-1-2"

    def test_interposer_single_channel_constraint(self):
        from repro.channels.interpose import Interposer

        sim, net, mgr, chan, tx, sinks = rig(1)
        other = mgr.create("other")
        ihost = net.add_host("ihost")
        inter = Interposer("i")
        ihost.spawn(inter)
        chan.split(inter)
        with pytest.raises(CommunicationError):
            other.split(inter)

    def test_split_preserves_directed_sends(self):
        from repro.channels.interpose import Interposer

        sim, net, mgr, chan, tx, sinks = rig(3)
        ihost = net.add_host("ihost")
        inter = Interposer("relay")
        ihost.spawn(inter)
        chan.split(inter)
        sim.run()
        chan.send(tx, "only-1", to="rx1")
        sim.run()
        assert [len(s.got) for s in sinks] == [0, 1, 0]


class TestDirectedSendMidStream:
    """A directed send on a channel with no interposer takes a short path;
    nothing on it may be remembered from the previous send."""

    def test_attach_and_detach_take_effect_on_the_next_send(self):
        sim, net, mgr, chan, tx, sinks = rig(2)
        chan.send(tx, "first", to="rx0")
        chan.detach("rx0")
        chan.send(tx, "to-nobody", to="rx0")
        late = Sink("late")
        net.add_host("late-host").spawn(late)
        chan.attach(Port("rx0", late.address, PortDirection.RECEIVE))
        chan.send(tx, "second", to="rx0")
        sim.run()
        assert [d.data for _, d in sinks[0].got] == ["first"]
        assert [d.data for _, d in late.got] == ["second"]
        assert chan.dropped_no_receiver == 1
        assert (chan.messages, net.messages_sent) == (3, 2)

    def test_rebind_mid_stream_moves_the_next_send(self):
        sim, net, mgr, chan, tx, sinks = rig(1)
        chan.send(tx, "before", to="rx0")
        sim.run()
        replacement = Sink("replacement")
        net.add_host("new-host").spawn(replacement)
        chan.rebind("rx0", replacement.address)
        chan.send(tx, "after", to="rx0")
        sim.run()
        assert [d.data for _, d in sinks[0].got] == ["before"]
        assert [d.data for _, d in replacement.got] == ["after"]

    def test_split_after_traffic_interposes_the_next_send(self):
        sim, net, mgr, chan, tx, sinks = rig(2)
        chan.send(tx, "direct", to="rx1")
        sim.run()
        relay = AuthenticationInterposer("auth", allowed_senders={"someone-else"})
        net.add_host("ihost").spawn(relay)
        chan.split(relay)
        chan.send(tx, "refused", to="rx1")
        sim.run()
        assert [d.data for _, d in sinks[1].got] == ["direct"]
        assert (relay.processed, relay.dropped) == (0, 1)

    def test_group_send_still_fans_out(self):
        sim, net, mgr, chan, tx, sinks = rig(3)
        chan.send(tx, "one", to="rx2")
        chan.send(tx, "all")
        sim.run()
        assert [[d.data for _, d in s.got] for s in sinks] == [["all"], ["all"], ["one", "all"]]
        assert net.messages_sent == 4

    def test_delivery_is_immutable(self):
        sim, net, mgr, chan, tx, sinks = rig(1)
        chan.send(tx, "x", to="rx0")
        sim.run()
        delivery = sinks[0].got[0][1]
        assert (delivery.channel, delivery.port, delivery.sender_port) == ("data", "rx0", "tx")
        with pytest.raises(AttributeError):
            delivery.data = "y"


class TestChannelManager:
    def test_create_get_destroy(self):
        mgr = ChannelManager(Network(Simulator()))
        chan = mgr.create("c")
        assert mgr.get("c") is chan
        assert "c" in mgr and len(mgr) == 1
        mgr.destroy("c")
        assert "c" not in mgr

    def test_duplicate_create_rejected(self):
        mgr = ChannelManager(Network(Simulator()))
        mgr.create("c")
        with pytest.raises(CommunicationError):
            mgr.create("c")

    def test_get_unknown_raises(self):
        with pytest.raises(CommunicationError):
            ChannelManager(Network(Simulator())).get("nope")

    def test_get_or_create(self):
        mgr = ChannelManager(Network(Simulator()))
        a = mgr.get_or_create("c")
        assert mgr.get_or_create("c") is a
