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

The network also tells failure detectors when they are needed at all:
:attr:`Network.calm` is True while nothing here can lose, delay or withhold
a message (no partition, every fault rate 0, latency factor 1, every host
up), and every change to that — plus the death of a *watched* process — is
announced to the watchers as a **disturbance edge**, raised before the
change takes effect (:meth:`Network.watch`, :meth:`Network.disturb`).  An
edge names the processes it kills, if any, so a watcher can tell a death
it must look for from a change that concerns everyone.  A watcher that
stayed silent because the network was calm therefore always learns of a
fault at the instant it happens, never after.  What a group of processes
observes is narrower (:meth:`Network.calm_for`): only its own hosts need be
up, and under the reliable transport drops, duplicates and reordering
surface as latency, not loss.

Two transport modes:

- **datagram** (default): the historical behaviour — a dropped or
  partition-blocked message is gone, duplicates arrive twice, reordering
  is visible to the receiver. Protocols above (Isis retransmission,
  execution-program retries) carry the recovery burden.
- **reliable** (``set_reliable()``): a TCP-like layer under the chaos
  harness. Every cross-host message gets a per-``(src host, dst host)``
  sequence number; a drop or partition block schedules a retransmission
  after an exponentially backed-off RTO instead of losing the message;
  the receiving side holds a reorder buffer that delivers strictly in
  sequence order and absorbs duplicates (an in-order arrival with nothing
  held back is handed over directly). A message that stays
  undeliverable for :attr:`TransportConfig.max_retries` attempts is
  *abandoned* (``net.lost``) and its sequence slot released so later
  traffic is not wedged behind the gap. Faults then surface as latency —
  which is exactly what makes "all tasks complete exactly once, makespan
  degrades gracefully" a testable property of the layers above.
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


@dataclass
class TransportConfig:
    """Reliable-transport timing (see module docstring).

    Attributes:
        rto: first retransmission timeout after a lost attempt (s).
        backoff: RTO multiplier per consecutive failed attempt.
        max_rto: ceiling on the backed-off RTO.
        max_retries: attempts before the message is abandoned for good.
    """

    rto: float = 0.05
    backoff: float = 2.0
    max_rto: float = 5.0
    max_retries: int = 16

    def retry_delay(self, attempt: int) -> float:
        return min(self.max_rto, self.rto * self.backoff**attempt)


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
        fifo: bool = True,
        egress_serialization: bool = False,
    ) -> None:
        """Args:
        fifo: when True (default), messages between a given host pair
            arrive in send order, as they would over a TCP connection —
            the ordering the Isis toolkit assumes of its transport.
        egress_serialization: when True, each host has one NIC: concurrent
            outgoing messages queue behind each other for their
            transmission time (size/bandwidth). Off by default — the
            plain model delivers every message independently, which is
            adequate for control traffic but understates the cost of
            fan-out-heavy data patterns like alltoall (ablated in
            benchmark E12b).
        """
        self.sim = sim
        self.latency = latency or LatencyModel()
        self.hosts: dict[str, Host] = {}
        # a datagram loss names its destination; a reliable-transport one
        # adds the sequence number (and a retransmit its attempt)
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
        self._fifo = fifo
        self._egress_serialization = egress_serialization
        self._egress_free: dict[str, float] = {}
        self._last_arrival: dict[tuple[str, str], float] = {}
        self._routes: dict[frozenset[str], LatencyModel] = {}
        self.transport: TransportConfig | None = None
        self._pairs: dict[tuple[str, str], _PairState] = {}
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

    @property
    def calm(self) -> bool:
        """True while no message can be lost, duplicated, reordered, slowed
        or withheld: no partition, every attached host up, every fault rate
        0 and the latency factor 1.  One network-wide predicate, whatever
        the transport; a process that dies on an up host does not change it
        (that is an edge only — see :meth:`disturb`).  A failure detector
        reads :meth:`calm_for` instead."""
        return (
            self._partitions is None
            and self._drop_rate == 0.0
            and self._duplicate_rate == 0.0
            and self._reorder_rate == 0.0
            and self._latency_factor == 1.0
            and all(host.up for host in self.hosts.values())
        )

    def calm_for(self, members: Iterable[Address]) -> bool:
        """:attr:`calm` as a group of *members* observes it: no partition,
        latency factor 1 and every member's host up (a down host no member
        lives on is invisible to the group).  Under the reliable transport
        drops, duplicates and reordering below a drop rate of 1 are absorbed
        — a message arrives, late, in order and once — so only a datagram
        network must also have every fault rate 0."""
        if self._partitions is not None or self._latency_factor != 1.0:
            return False
        if (self.transport is None or self._drop_rate == 1.0) and (
            self._drop_rate or self._duplicate_rate or self._reorder_rate
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
        """Drop each cross-host message independently with probability *p*.
        Under the reliable transport a "drop" costs a retransmission round
        instead of losing the message."""
        if not 0.0 <= p <= 1.0:
            raise SimulationError(f"drop rate must be in [0,1], got {p}")
        self.disturb()
        self._drop_rate = p

    def set_duplicate_rate(self, p: float) -> None:
        """Deliver each cross-host message twice with probability *p* (the
        reliable transport's receiver absorbs the copy; datagram mode hands
        both to the process)."""
        if not 0.0 <= p <= 1.0:
            raise SimulationError(f"duplicate rate must be in [0,1], got {p}")
        self.disturb()
        self._duplicate_rate = p

    def set_reorder_rate(self, p: float, spread: float | None = None) -> None:
        """Give each cross-host message probability *p* of an extra delay of
        up to *spread* seconds that bypasses the FIFO clamp, so it can
        overtake or fall behind its neighbours."""
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

    def set_reliable(self, config: TransportConfig | None = None) -> None:
        """Switch cross-host traffic to the sequenced reliable transport
        (see module docstring). Call before traffic starts; switching with
        messages in flight would renumber mid-stream."""
        self.transport = config or TransportConfig()

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
        """Remove any partition."""
        self.disturb()
        self._partitions = None

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

        Sends to unknown hosts raise (a programming error); sends to crashed
        hosts or across a partition are silently dropped (a runtime
        condition the protocols must tolerate) — except under the reliable
        transport, which retransmits until delivered or abandoned.
        """
        message = Message(src, dst, payload, size)
        self.messages_sent += 1
        self.bytes_sent += size
        src_name, dst_name = src.host, dst.host
        dst_host = self.hosts.get(dst_name)
        if dst_host is None:
            dst_host = self.host(dst_name)  # raises, naming the host
        sim = self.sim
        if self.transport is not None and src_name != dst_name:
            # the reliable transport delivers through its own frames
            state = self._pair(src_name, dst_name)
            seq = state.next_seq
            state.next_seq += 1
            self._transmit(message, seq, attempt=0)
            return

        def deliver() -> None:
            # a delivery is a message a live process was handed
            if dst_host.deliver(message):
                self.messages_delivered += 1

        if src_name == dst_name:
            sim.schedule_at(sim.now + self.latency.local_latency, deliver, host=dst_name)
            return
        # -- datagram path (the historical default) ------------------------
        if self._partitions is not None and not self._connected(src_name, dst_name):
            sim.emit(self._partition_drops, src_name, dst_name)
            return
        if self._drop_rate > 0.0 and self._drop_rng.random() < self._drop_rate:
            sim.emit(self._drops, src_name, dst_name)
            return
        arrival = sim.now + self._wire_delay(src_name, dst_name, size)
        if self._reorder_rate > 0.0 and self._reorder_rng.random() < self._reorder_rate:
            # extra lag that skips the FIFO clamp: the copy can be overtaken
            self.reorders_injected += 1
            arrival += self._reorder_rng.random() * self._reorder_spread
            sim.emit("net.reorder", src_name, dst=dst_name)
        elif self._fifo:
            key = (src_name, dst_name)
            last = self._last_arrival.get(key, 0.0)
            if last > arrival:
                arrival = last
            self._last_arrival[key] = arrival
        sim.schedule_at(arrival, deliver, host=dst_name)
        if self._duplicate_rate > 0.0 and self._dup_rng.random() < self._duplicate_rate:
            self.duplicates_injected += 1
            sim.emit("net.duplicate", src_name, dst=dst_name)
            sim.schedule_at(arrival + self.latency.local_latency, deliver, host=dst_name)

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

    # -- reliable transport ----------------------------------------------------

    def _transmit(self, message: Message, seq: int, attempt: int) -> None:
        """One delivery attempt of a sequenced message; drops and partition
        blocks cost a backed-off retransmission round instead of the
        message."""
        cfg = self.transport
        assert cfg is not None
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
            self.sim.schedule(
                cfg.retry_delay(attempt),
                lambda: self._transmit(message, seq, attempt + 1),
                host=src_host,  # the retransmit timer runs on the sender
            )
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
