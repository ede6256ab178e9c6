"""Message transport between hosts.

The network charges each message a latency drawn from a
:class:`LatencyModel` (fixed base + size/bandwidth + seeded jitter), honours
partitions (no delivery across partition boundaries), and can drop,
duplicate, reorder, and slow messages probabilistically for fault
experiments — every fault decision comes from a named seeded RNG stream,
so a run replays byte-identically under the same seed.

Delivery between two processes on the *same* host bypasses the wire and costs
:attr:`LatencyModel.local_latency` — the paper's LAN prototype similarly
distinguishes local procedure calls from remote messages.

Cross-host traffic runs over one transport, a TCP-like layer that models
the reliable FIFO channels the paper's Isis toolkit gave its daemons (and
the TCP connections of the :mod:`repro.netexec` backend).  Every cross-host
message gets a per-``(src host, dst host)`` sequence number; a drop or
partition block schedules a retransmission after an exponentially
backed-off RTO (:data:`RTO`, times :attr:`TransportConfig.backoff` per
failed attempt, up to :data:`MAX_RTO`), and :meth:`Network.heal` re-sends
every message still waiting at once, with its backoff reset; the
receiver's reorder buffer delivers strictly in sequence order and absorbs
duplicates.  A
message undeliverable for :attr:`TransportConfig.max_retries` attempts is
*abandoned* (``net.lost``) and its sequence slot released, so later traffic
is not wedged behind the gap.  The delivery contract is per-pair FIFO, at
most once, with loss only as abandonment; every other fault surfaces as
latency.

The network also tells failure detectors when they are needed at all:
:meth:`Network.calm_for` is True while nothing here can withhold or delay a
message between a group's members (no partition, latency factor 1, a drop
rate below 1 and every member's host up — drops, duplicates and reordering
below that are absorbed by the transport), and every change to the fault
state — plus the death of a *watched* process — is announced to the
watchers as a **disturbance edge**, raised before the change takes effect
(:meth:`Network.watch`, :meth:`Network.disturb`).  An edge names the
processes it kills, if any, so a watcher can tell a death it must look for
from a change that concerns everyone.  A watcher that stayed silent because
the network was calm therefore always learns of a fault at the instant it
happens, never after.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, NamedTuple

from repro.netsim.backend import SimBackend
from repro.netsim.host import Address, Host
from repro.util.errors import SimulationError


class Message(NamedTuple):
    """A message in flight (tuple-backed: one is built per send).

    Attributes:
        src: sender address.
        dst: recipient address.
        payload: arbitrary application object (never serialized — the sim
            moves references; *size* models the wire cost).
        size: bytes charged to the bandwidth model.
    """

    src: Address
    dst: Address
    payload: Any
    size: int = 256


@dataclass
class LatencyModel:
    """Per-message delay model.

    ``delay = base_latency + size / bandwidth + U(0, jitter)``

    Defaults approximate a early-1990s 10 Mb/s Ethernet LAN with ~1 ms
    software overhead, matching the environment of the paper's prototype.
    """

    base_latency: float = 1e-3
    bandwidth: float = 1.25e6  # bytes/second (10 Mb/s)
    jitter: float = 2e-4
    local_latency: float = 5e-5

    def delay(self, size: int, jitter_draw: float) -> float:
        return self.base_latency + size / self.bandwidth + jitter_draw * self.jitter


#: first retransmission timeout after a lost attempt (s)
RTO = 0.05
#: ceiling on the backed-off retransmission timeout (s)
MAX_RTO = 5.0


@dataclass
class TransportConfig:
    """Transport timing (see module docstring).

    Attributes:
        backoff: :data:`RTO` multiplier per consecutive failed attempt,
            up to :data:`MAX_RTO`.
        max_retries: attempts before the message is abandoned for good.
    """

    backoff: float = 2.0
    max_retries: int = 16

    def retry_delay(self, attempt: int) -> float:
        return min(MAX_RTO, RTO * self.backoff**attempt)


@dataclass
class _PairState:
    """Receiver-side ordering state for one (src host, dst host) pair."""

    next_seq: int = 0  # sender: next sequence number to assign
    deliver_next: int = 0  # receiver: next sequence expected
    buffer: dict = field(default_factory=dict)  # seq -> (message, size-less arrival)
    abandoned: set = field(default_factory=set)  # seqs the sender gave up on


class Network:
    """Connects hosts; schedules message deliveries on the simulator."""

    def __init__(
        self,
        sim: SimBackend,
        latency: LatencyModel | None = None,
        egress_serialization: bool = False,
        transport: TransportConfig | None = None,
    ) -> None:
        """Args:
        egress_serialization: when True, each host has one NIC: concurrent
            outgoing messages queue behind each other for their
            transmission time (size/bandwidth). Off by default — the
            plain model delivers every message independently, which is
            adequate for control traffic but understates the cost of
            fan-out-heavy data patterns like alltoall (ablated in
            experiment E12b).
        transport: retransmission timing (default :class:`TransportConfig`).
        """
        self.sim = sim
        self.latency = latency or LatencyModel()
        self.hosts: dict[str, Host] = {}
        # a loss names its destination and sequence number (a retransmit
        # also its attempt)
        log = sim.log
        self._partition_drops = log.category("net.partition_drop", ("dst", "seq"))
        self._drops = log.category("net.drop", ("dst", "seq"))
        self._retransmits = log.category("net.retransmit", ("dst", "seq", "attempt"))
        self._rng = sim.rng.stream("network.jitter")
        self._drop_rng = sim.rng.stream("network.drop")
        self._dup_rng = sim.rng.stream("network.duplicate")
        self._reorder_rng = sim.rng.stream("network.reorder")
        self._drop_rate = 0.0
        self._duplicate_rate = 0.0
        self._reorder_rate = 0.0
        self._reorder_spread = 0.01  # max extra seconds a reordered copy lags
        self._latency_factor = 1.0
        self._partitions: list[set[str]] | None = None
        #: failure-detecting processes -> their disturbance callback, in
        #: registration order (the order the edge calls them in)
        self._watchers: dict[Any, Callable[[tuple[Any, ...]], None]] = {}
        #: disturbance edges raised so far.  A message that carries the
        #: count it was sent under vouches for "nothing has happened since"
        #: when no edge its receiver cares about came after that count.
        self.disturbances = 0
        self._egress_serialization = egress_serialization
        self._egress_free: dict[str, float] = {}
        self._routes: dict[frozenset[str], LatencyModel] = {}
        self.transport = transport or TransportConfig()
        self._pairs: dict[tuple[str, str], _PairState] = {}
        #: (src host, dst host, seq) -> (message, next attempt, its backoff
        #: timer) of every message waiting on a retransmission timer
        self._held: dict[tuple[str, str, int], tuple[Message, int, Any]] = {}
        self.messages_sent = 0
        self.messages_delivered = 0
        self.bytes_sent = 0
        self.retransmissions = 0
        self.duplicates_injected = 0
        self.duplicates_dropped = 0
        self.reorders_injected = 0
        self.messages_lost = 0

    # -- topology ------------------------------------------------------------

    def attach(self, host: Host) -> Host:
        if host.name in self.hosts:
            raise SimulationError(f"duplicate host name {host.name!r}")
        self.hosts[host.name] = host
        host.network = self
        return host

    def add_host(self, name: str, speed: float = 1.0) -> Host:
        """Create and attach a host in one call."""
        return self.attach(Host(self.sim, name, speed))

    def host(self, name: str) -> Host:
        try:
            return self.hosts[name]
        except KeyError:
            raise SimulationError(f"unknown host {name!r}") from None

    def set_route(self, a: str, b: str, latency: LatencyModel) -> None:
        """Override the latency model for the (symmetric) pair *a*, *b* —
        e.g. a WAN link between hosts at different sites. A network of
        supercomputers across campuses is the VCE's motivating setting."""
        self._routes[frozenset((a, b))] = latency

    def latency_between(self, a: str, b: str) -> LatencyModel:
        routes = self._routes
        if not routes:
            return self.latency
        return routes.get(frozenset((a, b)), self.latency)

    # -- calm and disturbance --------------------------------------------------

    def calm_for(self, members: Iterable[Address]) -> bool:
        """True while no message between *members* can be withheld or
        delayed: no partition, latency factor 1, a drop rate below 1 and
        every member's host up (a down host no member lives on is invisible
        to the group).  Drops, duplicates and reordering below a drop rate
        of 1 are absorbed by the transport — a message arrives, late, in
        order and once.  A process that dies on an up host does not change
        it (that is an edge only — see :meth:`disturb`)."""
        if (
            self._partitions is not None
            or self._latency_factor != 1.0
            or self._drop_rate == 1.0
        ):
            return False
        hosts = self.hosts
        for member in members:
            if not hosts[member.host].up:
                return False
        return True

    def watch(
        self, process: Any, on_disturbance: Callable[[tuple[Any, ...]], None]
    ) -> None:
        """Register *process* as a failure detector's subject and listener:
        *on_disturbance* runs on every disturbance edge, and killing the
        process is itself an edge.  The registration ends when the process
        is named as dying in :meth:`disturb`."""
        self._watchers[process] = on_disturbance

    def watches(self, process: Any) -> bool:
        """Is *process* registered with :meth:`watch`?"""
        return process in self._watchers

    def disturb(self, *dying: Any) -> None:
        """Raise the disturbance edge: count it and tell every watcher,
        passing *dying* (empty for an edge that names nobody).  *dying* are
        processes about to die or fall silent; they lose their registration
        first and are not told.

        Called by :meth:`partition`/:meth:`heal`, the ``set_*`` fault
        setters, ``Host.crash``/``recover`` and ``Host.kill`` of a watched
        process, each time *before* the change takes effect, so a watcher's
        callback still sees (and may still use) the undisturbed network."""
        for process in dying:
            self._watchers.pop(process, None)
        self.disturbances += 1
        for callback in list(self._watchers.values()):
            callback(dying)

    # -- fault knobs -----------------------------------------------------------

    def set_drop_rate(self, p: float) -> None:
        """Drop each cross-host transmission independently with probability
        *p*.  A drop costs a retransmission round, not the message."""
        if not 0.0 <= p <= 1.0:
            raise SimulationError(f"drop rate must be in [0,1], got {p}")
        self.disturb()
        self._drop_rate = p

    def set_duplicate_rate(self, p: float) -> None:
        """Deliver each cross-host transmission twice with probability *p*
        (the receiver absorbs the copy)."""
        if not 0.0 <= p <= 1.0:
            raise SimulationError(f"duplicate rate must be in [0,1], got {p}")
        self.disturb()
        self._duplicate_rate = p

    def set_reorder_rate(self, p: float, spread: float | None = None) -> None:
        """Give each cross-host transmission probability *p* of an extra
        delay of up to *spread* seconds, so it can overtake or fall behind
        its neighbours on the wire (the receiver's reorder buffer restores
        the order)."""
        if not 0.0 <= p <= 1.0:
            raise SimulationError(f"reorder rate must be in [0,1], got {p}")
        if spread is not None and spread < 0:
            raise SimulationError(f"reorder spread must be >= 0, got {spread}")
        self.disturb()
        self._reorder_rate = p
        if spread is not None:
            self._reorder_spread = spread

    def set_latency_factor(self, factor: float) -> None:
        """Scale every cross-host delay by *factor* (link congestion /
        latency-spike windows; 1.0 restores normal service)."""
        if factor <= 0:
            raise SimulationError(f"latency factor must be positive, got {factor}")
        self.disturb()
        self._latency_factor = factor

    @property
    def latency_factor(self) -> float:
        return self._latency_factor

    def _pair(self, src_host: str, dst_host: str) -> _PairState:
        key = (src_host, dst_host)
        state = self._pairs.get(key)
        if state is None:
            state = self._pairs[key] = _PairState()
        return state

    def _tel_inc(self, name: str, help_text: str, n: int = 1) -> None:
        tel = self.sim.telemetry
        if tel is not None:
            tel.counter(name, help_text).inc(n)

    def partition(self, *groups: set[str] | frozenset[str] | list[str]) -> None:
        """Split the network: messages only flow within a group. Hosts not
        named in any group form an implicit final group."""
        named = [set(g) for g in groups]
        rest = set(self.hosts) - set().union(*named) if named else set(self.hosts)
        if rest:
            named.append(rest)
        self.disturb()
        self._partitions = named

    def heal(self) -> None:
        """Remove any partition, and re-send every message waiting on a
        retransmission timer at once, as a first attempt: traffic on a pair
        that was cut flows again within one wire delay, and a resend that
        a drop loses is retried after :data:`RTO`, not at the backoff the
        partition built up."""
        self.disturb()
        self._partitions = None
        held, self._held = self._held, {}
        for (_, _, seq), (message, _attempt, timer) in held.items():
            timer.cancel()
            self._transmit(message, seq, 0)

    def _connected(self, a: str, b: str) -> bool:
        if self._partitions is None:
            return True
        for group in self._partitions:
            if a in group:
                return b in group
        return False

    # -- transport ---------------------------------------------------------------

    def send(self, src: Address, dst: Address, payload: Any, size: int = 256) -> None:
        """Send a message; delivery is scheduled per the latency model.

        Sends to unknown hosts raise (a programming error); a message to a
        crashed host is delivered to nobody, and one across a partition or
        dropped is retransmitted until delivered or abandoned (a runtime
        condition the protocols must tolerate).
        """
        message = Message(src, dst, payload, size)
        self.messages_sent += 1
        self.bytes_sent += size
        src_name, dst_name = src.host, dst.host
        dst_host = self.hosts.get(dst_name)
        if dst_host is None:
            dst_host = self.host(dst_name)  # raises, naming the host
        if src_name != dst_name:
            state = self._pair(src_name, dst_name)
            seq = state.next_seq
            state.next_seq += 1
            self._transmit(message, seq, attempt=0)
            return

        def deliver() -> None:
            # a delivery is a message a live process was handed
            if dst_host.deliver(message):
                self.messages_delivered += 1

        sim = self.sim
        sim.schedule_at(sim.now + self.latency.local_latency, deliver, host=dst_name)

    def _wire_delay(self, src_host: str, dst_host: str, size: int) -> float:
        model = self.latency_between(src_host, dst_host)
        if self._egress_serialization:
            # one NIC per host: transmissions queue for the wire
            tx_start = max(self.sim.now, self._egress_free.get(src_host, 0.0))
            tx_done = tx_start + size / model.bandwidth
            self._egress_free[src_host] = tx_done
            delay = (
                (tx_done - self.sim.now)
                + model.base_latency
                + self._rng.random() * model.jitter
            )
        else:
            delay = model.delay(size, self._rng.random())
        return delay * self._latency_factor

    # -- sequencing and retransmission -----------------------------------------

    def _transmit(self, message: Message, seq: int, attempt: int) -> None:
        """One delivery attempt of a sequenced message; drops and partition
        blocks cost a backed-off retransmission round instead of the
        message."""
        cfg = self.transport
        src_host, dst_host = message.src.host, message.dst.host
        blocked = self._partitions is not None and not self._connected(src_host, dst_host)
        if blocked:
            self.sim.emit(self._partition_drops, src_host, dst_host, seq)
        elif self._drop_rate > 0.0 and self._drop_rng.random() < self._drop_rate:
            self.sim.emit(self._drops, src_host, dst_host, seq)
            blocked = True
        if blocked:
            if attempt >= cfg.max_retries:
                self.messages_lost += 1
                self._tel_inc("net_lost_total", "messages abandoned after max retries")
                self.sim.emit(
                    "net.lost", src_host, dst=dst_host, seq=seq, attempts=attempt + 1
                )
                self._abandon(src_host, dst_host, seq)
                return
            self.retransmissions += 1
            self._tel_inc("net_retransmits_total", "reliable-transport retransmissions")
            self.sim.emit(self._retransmits, src_host, dst_host, seq, attempt + 1)
            key = (src_host, dst_host, seq)
            timer = self.sim.schedule(
                cfg.retry_delay(attempt),
                lambda: self._retry(key),
                host=src_host,  # the retransmit timer runs on the sender
            )
            self._held[key] = (message, attempt + 1, timer)
            return
        arrival = self.sim.now + self._wire_delay(src_host, dst_host, message.size)
        if self._reorder_rate > 0.0 and self._reorder_rng.random() < self._reorder_rate:
            self.reorders_injected += 1
            arrival += self._reorder_rng.random() * self._reorder_spread
            self.sim.emit("net.reorder", src_host, dst=dst_host, seq=seq)
        self.sim.schedule_at(arrival, lambda: self._arrive(message, seq), host=dst_host)
        if self._duplicate_rate > 0.0 and self._dup_rng.random() < self._duplicate_rate:
            self.duplicates_injected += 1
            self.sim.emit("net.duplicate", src_host, dst=dst_host, seq=seq)
            copy_at = arrival + self.latency.local_latency
            self.sim.schedule_at(copy_at, lambda: self._arrive(message, seq), host=dst_host)

    def _retry(self, key: tuple[str, str, int]) -> None:
        """The backoff timer of a held message (:meth:`heal` cancels it
        when it re-sends the message first)."""
        message, attempt, _timer = self._held.pop(key)
        self._transmit(message, key[2], attempt)

    def _arrive(self, message: Message, seq: int) -> None:
        """Receiver side: dedup by sequence number, restore order, deliver."""
        src_host, dst_host = message.src.host, message.dst.host
        state = self._pairs[(src_host, dst_host)]
        buffer = state.buffer
        if seq == state.deliver_next and not buffer and not state.abandoned:
            # in order with nothing held back: the buffer would release
            # exactly this message, so hand it over directly
            state.deliver_next = seq + 1
            if self.hosts[dst_host].deliver(message):
                self.messages_delivered += 1
            return
        if seq < state.deliver_next or seq in buffer or seq in state.abandoned:
            self.duplicates_dropped += 1
            self._tel_inc("net_dup_dropped_total", "duplicate deliveries absorbed")
            self.sim.emit("net.dup_dropped", src_host, dst=dst_host, seq=seq)
            return
        buffer[seq] = message
        self._release(state)

    def _abandon(self, src_host: str, dst_host: str, seq: int) -> None:
        """Sender gave up on *seq*: release any successors wedged behind it."""
        state = self._pair(src_host, dst_host)
        if seq >= state.deliver_next:
            state.abandoned.add(seq)
            self._release(state)

    def _release(self, state: _PairState) -> None:
        while True:
            if state.deliver_next in state.buffer:
                message = state.buffer.pop(state.deliver_next)
                state.deliver_next += 1
                if self.hosts[message.dst.host].deliver(message):
                    self.messages_delivered += 1
            elif state.deliver_next in state.abandoned:
                state.abandoned.discard(state.deliver_next)
                state.deliver_next += 1
            else:
                return
