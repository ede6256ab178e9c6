"""Channel routing and management.

A :class:`Channel` records its attached send ports, receive ports (by port
name), and any interposer stages spliced into it. Sends traverse the
interposer chain, then fan out to receive ports (all of them, or one named
port for a directed send). Every hop is a real network message and pays the
latency model.

The :class:`ChannelManager` is the runtime's bookkeeping for channel
creation, port attachment, splitting, and redirection. It is a simulation-
level object (one per VCE), matching the paper's "the runtime system will be
responsible for the creation, placement, and destruction of ports";
rebinding state is considered control-plane and takes effect immediately,
while the data path always pays wire costs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, NamedTuple

from repro.channels.port import Port, PortDirection
from repro.netsim.host import Address
from repro.trace.context import TRACE_FIELDS
from repro.util.errors import CommunicationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.channels.interpose import Interposer
    from repro.netsim.network import Network
    from repro.trace.context import TraceContext


class ChannelDelivery(NamedTuple):
    """The payload wrapper delivered to a receiving process (tuple-backed:
    one is built per receiver of every send).

    Attributes:
        channel: channel name.
        port: the receive port this copy is addressed to.
        sender_port: name of the sending port.
        data: the application payload.
        size: wire size in bytes.
    """

    channel: str
    port: str
    sender_port: str
    data: Any
    size: int


class Channel:
    """One logical transport medium (see module docstring)."""

    def __init__(self, name: str, network: "Network") -> None:
        self.name = name
        self.network = network
        self._senders: dict[str, Port] = {}
        self._receivers: dict[str, Port] = {}
        self._stages: list["Interposer"] = []
        self.messages = 0
        self.bytes = 0
        self.dropped_no_receiver = 0
        self._sends = network.sim.log.category(
            "chan.send", ("channel", "to", "size", *TRACE_FIELDS)
        )
        # live-telemetry handles, cached per channel (hot path)
        tel = network.sim.telemetry
        self._m_messages = (
            tel.counter("chan_messages_total", "channel sends")
            if tel is not None else None
        )
        self._m_bytes = (
            tel.counter("chan_bytes_total", "channel payload bytes")
            if tel is not None else None
        )

    # -- attachment -----------------------------------------------------------

    def attach(self, port: Port) -> Port:
        hb = self.network.sim.hb
        if hb is not None:
            hb.write(f"chan:{self.name}", "R005", "channel.attach")
        table = self._senders if port.direction is PortDirection.SEND else self._receivers
        if port.name in table:
            raise CommunicationError(
                f"channel {self.name!r}: duplicate {port.direction.value} port {port.name!r}"
            )
        table[port.name] = port
        return port

    def detach(self, port_name: str) -> None:
        hb = self.network.sim.hb
        if hb is not None:
            hb.write(f"chan:{self.name}", "R005", "channel.detach")
        self._senders.pop(port_name, None)
        self._receivers.pop(port_name, None)

    def rebind(self, port_name: str, new_owner: Address) -> Port:
        """Repoint a receive port at a new process (migration support).

        "these libraries will provide the runtime manager with the ability
        to monitor, redirect, and move connections between tasks" (§4.2).
        """
        old = self._receivers.get(port_name)
        if old is None:
            raise CommunicationError(
                f"channel {self.name!r}: cannot rebind unknown port {port_name!r}"
            )
        hb = self.network.sim.hb
        if hb is not None:
            # rebind targets an existing port by name (see bind's membership
            # check); racing an attach of a different port is safe
            hb.write(f"chan:{self.name}", "R005", "channel.rebind")  # hbrace: ok(R005)
        port = Port(port_name, new_owner, PortDirection.RECEIVE)
        self._receivers[port_name] = port
        return port

    def bind(self, port_name: str, owner: Address) -> Port:
        """Point receive port *port_name* at *owner*: rebind it if the
        channel has it (a re-dispatched rank), attach it otherwise."""
        if port_name in self._receivers:
            return self.rebind(port_name, owner)
        return self.attach(Port(port_name, owner, PortDirection.RECEIVE))

    @property
    def receive_ports(self) -> list[Port]:
        return list(self._receivers.values())

    @property
    def send_ports(self) -> list[Port]:
        return list(self._senders.values())

    # -- splitting ----------------------------------------------------------------

    def split(self, interposer: "Interposer") -> None:
        """Splice an interposer task between senders and receivers. Multiple
        splits chain in insertion order (sender-side first)."""
        if interposer.host is None:
            raise CommunicationError(
                f"interposer {interposer.name!r} must be spawned on a host before splitting"
            )
        interposer.bind_channel(self)
        self._stages.append(interposer)

    @property
    def stages(self) -> list["Interposer"]:
        return list(self._stages)

    # -- data path ------------------------------------------------------------------

    def send(
        self,
        sender: Port | Address,
        data: Any,
        size: int = 256,
        to: str | None = None,
        trace: "TraceContext | None" = None,
    ) -> None:
        """Send *data* into the channel.

        Without *to*, every receive port gets a copy (group delivery); with
        *to*, only the named port does. "Clients may be unaware of whether
        messages are being received by groups or individuals."

        *trace* is the sender's span: traced sends are logged as
        ``chan.send`` records so the trace assembler can follow an
        application's data path hop by hop.
        """
        if isinstance(sender, Port):
            sender_addr, sender_port = sender.owner, sender.name
        else:
            sender_addr, sender_port = sender, str(sender)
        self.messages += 1
        self.bytes += size
        network = self.network
        sim = network.sim
        family = self._m_messages
        if family is not None:
            (family.child or family.solo()).inc()
            family = self._m_bytes
            (family.child or family.solo()).inc(size)
        if trace is not None:
            sim.emit(self._sends, str(sender_addr), self.name, to, size, *trace.values())
        if to is None or self._stages:
            self._route(sender_addr, sender_port, data, size, to, stage=0)
            return
        # a directed send with no interposer is the whole data plane of a
        # vMPI program: one probe of the receive ports, one network send
        hb = sim.hb
        if hb is not None:
            hb.read(f"chan:{self.name}", "R005", "channel.route")
        port = self._receivers.get(to)
        if port is None:
            self.dropped_no_receiver += 1
            return
        network.send(
            sender_addr, port.owner, ChannelDelivery(self.name, to, sender_port, data, size), size
        )

    def _route(
        self,
        from_addr: Address,
        sender_port: str,
        data: Any,
        size: int,
        to: str | None,
        stage: int,
    ) -> None:
        """Advance a message to interposer *stage*, or fan out if past the
        last stage. Called by Channel.send and by interposers forwarding."""
        if stage < len(self._stages):
            interposer = self._stages[stage]
            self.network.send(
                from_addr,
                interposer.address,
                _StageDelivery(self.name, sender_port, data, size, to, stage),
                size=size,
            )
            return
        hb = self.network.sim.hb
        if hb is not None:
            hb.read(f"chan:{self.name}", "R005", "channel.route")
        targets = (
            [self._receivers[to]]
            if to is not None and to in self._receivers
            else list(self._receivers.values())
            if to is None
            else []
        )
        if not targets:
            self.dropped_no_receiver += 1
            return
        for port in targets:
            self.network.send(
                from_addr,
                port.owner,
                ChannelDelivery(self.name, port.name, sender_port, data, size),
                size=size,
            )


@dataclass(frozen=True, slots=True)
class _StageDelivery:
    """Internal wrapper addressed to an interposer stage."""

    channel: str
    sender_port: str
    data: Any
    size: int
    to: str | None
    stage: int


class ChannelManager:
    """Creates and tracks the channels of one VCE."""

    def __init__(self, network: "Network") -> None:
        self.network = network
        self._channels: dict[str, Channel] = {}

    def create(self, name: str) -> Channel:
        if name in self._channels:
            raise CommunicationError(f"channel {name!r} already exists")
        channel = Channel(name, self.network)
        self._channels[name] = channel
        return channel

    def get(self, name: str) -> Channel:
        try:
            return self._channels[name]
        except KeyError:
            raise CommunicationError(f"unknown channel {name!r}") from None

    def get_or_create(self, name: str) -> Channel:
        return self._channels[name] if name in self._channels else self.create(name)

    def destroy(self, name: str) -> None:
        self._channels.pop(name, None)

    def __contains__(self, name: str) -> bool:
        return name in self._channels

    def __len__(self) -> int:
        return len(self._channels)

    def rebind_everywhere(self, old_owner: Address, new_owner: Address) -> int:
        """Repoint every receive port owned by *old_owner* to *new_owner*
        across all channels. Returns the number of ports moved. This is the
        one-call connection handoff used when a task migrates."""
        moved = 0
        for channel in self._channels.values():
            for port in channel.receive_ports:
                if port.owner == old_owner:
                    channel.rebind(port.name, new_owner)
                    moved += 1
        return moved
