"""The Isis-style group membership component.

A process that joins a group owns one :class:`Membership`.  It gives its
owner the toolkit facilities the paper's prototype uses, and nothing else:

- ``join`` and automatic failure eviction, with coordinator-driven
  two-phase view changes (Flush, NewView);
- heartbeat failure detection with rank-staggered takeover so "the oldest
  surviving member of the group assume[s] the role of group leader".

It sends no multicast.  The owner talks to the members of its view point
to point (``send``); the scheduler's bidding round is such a fan-out of
probes and replies (:mod:`repro.scheduler.daemon`).

The failure detector has one extra state, **parked**.  While the network is
calm as the group observes it (:meth:`repro.netsim.network.Network.calm_for`
over the view's hosts) and the group is steady, every beat would arrive and
every timeout check would pass, so the ``hb`` timer is not re-armed and no
beat is sent.  The coordinator decides for the whole group — a member that
parked while its coordinator watched it would go stale and be suspected —
by stamping its last :class:`CoordBeat` with the network's disturbance
count; members park when that beat arrives with no edge that voids it in
between.  The network raises a disturbance edge *before* any fault takes
effect (crash, kill of a member, partition, fault rate, heal ...): a woken
member forgives the agreed silence (timestamps refreshed to ``now``, as
``_install`` does on a view change), re-arms ``hb`` on its old phase, and
the explicit protocol below runs unchanged.  A member also wakes when a
beat from its coordinator carries no valid park order.

The detector is *scoped* to the disturbance: an edge that names dying
members other than the coordinator wakes only the coordinator, which
watches the named members alone until they are evicted, while everyone
else keeps its park order; a view change that every member vouched for in
one disturbance epoch installs parked; and departed members are probed on
a backoff of their own instead of keeping the group awake.

Concurrency note: everything runs inside one deterministic simulator, so no
locking is needed; correctness concerns are protocol-level (stale views,
crashed coordinators, messages from superseded views).
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import Any, Callable

from repro.isis.messages import (
    CoordBeat,
    Evicted,
    Flush,
    FlushOk,
    Heartbeat,
    JoinReq,
    NewView,
)
from repro.isis.views import View
from repro.netsim.host import Address
from repro.netsim.process import SimProcess


@dataclass
class IsisConfig:
    """Protocol timing and sizing knobs.

    Attributes:
        hb_interval: heartbeat period (s).
        hb_timeout: silence after which a member is declared failed (s).
        flush_timeout: how long the coordinator waits for FlushOk before
            treating non-responders as failed (s).
        join_retry: joiner's retransmission period (s).
        control_size: wire size charged to protocol messages (bytes).
        require_majority: when True, a view change only installs if a
            strict majority of the previous view survives into the new one
            — the quorum rule that prevents split-brain under network
            partitions (an extension beyond the paper's LAN prototype).
            Members on a minority side stall until the partition heals,
            then learn they were evicted and rejoin.
    """

    hb_interval: float = 0.5
    hb_timeout: float = 2.0
    flush_timeout: float = 1.5
    join_retry: float = 1.0
    control_size: int = 128
    require_majority: bool = False


@dataclass
class _ViewChange:
    """Coordinator-side state of an in-progress view change."""

    proposed: View
    waiting_on: set[Address]
    #: the network's disturbance count when the change started
    epoch: int


class Membership:
    """A process's membership in one group.  The owner starts and stops it
    and hands it the messages and timer keys the owner does not handle; it
    acts through the owner and calls its ``on_view_change(view, joined, left)``.

    Args:
        owner: the process that owns the component.
        group: group name (informational; one component serves one group).
        contacts: addresses of existing members to join through; ``None`` or
            empty founds a new group as its first (and thus coordinator)
            member.
        config: protocol knobs.
    """

    def __init__(
        self,
        owner: SimProcess,
        group: str,
        contacts: list[Address] | None = None,
        config: IsisConfig | None = None,
    ) -> None:
        # weak, so the two form no cycle; a proxy cannot key Network.watch
        self._owner = weakref.proxy(owner)
        self._process = weakref.ref(owner)
        self.group = group
        self.config = config or IsisConfig()
        self._contacts = list(contacts or [])
        self._contact_idx = 0

        self.view: View | None = None

        # view-change state
        self._change: _ViewChange | None = None
        self._flushing = False
        self._queued_joins: list[Address] = []
        self._queued_leaves: set[Address] = set()
        self._acting_coordinator = False

        # failure detection
        self._last_seen: dict[Address, float] = {}
        self._last_coord_seen = 0.0
        # group-merge machinery: departed members we occasionally probe so
        # that concurrently-formed rival groups discover each other
        self._alumni: dict[Address, tuple[int, float]] = {}  # -> (probes sent, next due)
        self._hb_ticks = 0
        # parked state (see module docstring): when the hb timer is next
        # due — its phase, kept while parked — and, coordinator side, the
        # members whose Heartbeat arrived from this view with no edge that
        # concerns them since it was sent ("heard from since calm returned")
        self._parked = False
        self._hb_due = 0.0
        self._heard: set[Address] = set()
        # the disturbance count of the last edge that voids this member's
        # park orders and the beats it receives; coordinator side, the count
        # at which a member was named dying (its older beats vouch for
        # nothing), the members a named edge woke it for (None: the whole
        # view) and the count each queued joiner sent its JoinReq under
        self._voided_at = 0
        self._named_at: dict[Address, int] = {}
        self._suspects: set[Address] | None = None
        self._join_epochs: dict[Address, int] = {}
        # live metrics (resolved at start; None when telemetry is off); the
        # gauge is the one of isis_parked / isis_awake this member counts in
        self._tel_ticks: Any = None
        self._tel_beats: Any = None
        self._tel_parked: Any = None
        self._tel_awake: Any = None
        self._tel_gauge: Any = None

    # ------------------------------------------------------------------ API

    @property
    def joined(self) -> bool:
        return self.view is not None

    @property
    def parked(self) -> bool:
        """True while this member's failure detector is parked."""
        return self._parked

    @property
    def is_coordinator(self) -> bool:
        return self.view is not None and (
            self.view.coordinator == self._owner.address or self._acting_coordinator
        )

    # ------------------------------------------------------------- lifecycle

    def start(self) -> None:
        """Found the group, or join it through the contacts."""
        self._views = self._owner.sim.log.category(
            "isis.view", ("group", "view_id", "members", "coordinator")
        )
        network = self._owner.host.network
        network.watch(self._process(), self._on_disturbance)
        self._voided_at = network.disturbances
        tel = self._owner.sim.telemetry
        if tel is not None:
            self._tel_ticks = tel.counter(
                "isis_hb_ticks_total", "failure-detector timer ticks"
            ).labels()
            self._tel_beats = tel.counter(
                "isis_beats_sent_total", "Heartbeat/CoordBeat messages sent"
            ).labels()
            self._tel_parked = tel.gauge(
                "isis_parked", "group members whose failure detector is parked"
            ).labels()
            self._tel_awake = tel.gauge(
                "isis_awake", "group members running the explicit heartbeat protocol"
            ).labels()
        if not self._contacts:
            self._install(View(1, (self._owner.address,)))
        else:
            self._try_join()

    def stop(self) -> None:
        self._set_parked(False)

    def _try_join(self) -> None:
        if self.joined or not self._owner.alive:
            return
        contact = self._contacts[self._contact_idx % len(self._contacts)]
        self._contact_idx += 1
        self._owner.send(
            contact,
            JoinReq(self._owner.address, self._owner.host.network.disturbances),
            size=self.config.control_size,
        )
        self._owner.set_timer(self.config.join_retry, "join-retry")

    # ------------------------------------------------------------ dispatch

    def on_message(self, src: Address, payload: Any) -> None:
        handler = self._HANDLERS.get(type(payload))
        if handler is not None:
            handler(self, src, payload)

    def _on_heartbeat(self, src: Address, msg: Heartbeat) -> None:
        self._last_seen[msg.sender] = self._owner.now
        # a live heartbeat retracts any queued suspicion (partition heal)
        self._queued_leaves.discard(msg.sender)
        view = self.view
        if view is None:
            return
        if msg.sender not in view:
            # a non-member is heartbeating us: it was evicted (losing
            # side of a partition, or a superseded rival group) and
            # should rejoin through our coordinator
            self._owner.send(
                msg.sender,
                Evicted(view.view_id, view.coordinator),
                size=self.config.control_size,
            )
        elif (
            msg.view_id == view.view_id
            and msg.epoch >= self._voided_at
            and msg.epoch >= self._named_at.get(msg.sender, 0)
        ):
            self._heard.add(msg.sender)

    def _on_coord_beat(self, src: Address, msg: CoordBeat) -> None:
        view = self.view
        if view is None:
            return
        me = self._owner.address
        if view.coordinator == me and msg.sender != me and msg.sender not in view:
            # another coordinator exists (concurrent takeovers formed
            # rival groups): resolve deterministically and merge
            self._on_rival_coordinator(msg)
        elif msg.view_id > view.view_id and msg.sender in view and self.is_coordinator:
            # a member of our view coordinates a newer one: the group went
            # on without us (e.g. we were cut off with no quorum), so our
            # view is dead — rejoin through its coordinator
            self._on_evicted(msg.sender, Evicted(msg.view_id, msg.sender))
        elif msg.view_id >= view.view_id and msg.sender in view:
            self._last_coord_seen = self._owner.now
            if msg.sender == me:
                return
            # the legitimate coordinator is alive: stand down any
            # takeover attempt (e.g. after a heal)
            self._acting_coordinator = False
            # park and wake with the coordinator, never alone: its order
            # holds if it is for this view and nothing disturbed the
            # network since it was sent
            if (
                msg.park >= self._voided_at
                and msg.view_id == view.view_id
                and msg.sender == view.coordinator
            ):
                if not self._parked:
                    self._owner.cancel_timer("hb")
                    self._set_parked(True)
            elif self._parked:
                self._wake()

    # ------------------------------------------------------------ membership

    def _on_join_req(self, src: Address, req: JoinReq) -> None:
        if not self.joined:
            return
        assert self.view is not None
        if (
            req.joiner in self.view
            and self._change is None
            and req.joiner != self.view.coordinator
        ):
            # Duplicate join (e.g. retransmission raced the NewView): resend
            # the current view so the joiner learns it is already in.  Never
            # to the view's own coordinator: that joiner is a restarted
            # coordinator the group has not replaced yet, which lost its
            # state; given this view it would lead a group of stale members
            # (docs/FAULTS.md, known issue 5) — it retries until a takeover
            # has evicted its old incarnation.
            self._owner.send(req.joiner, NewView(self.view), size=self.config.control_size)
            return
        if self.is_coordinator:
            if req.joiner not in self._queued_joins:
                self._queued_joins.append(req.joiner)
            epochs = self._join_epochs
            epochs[req.joiner] = max(req.epoch, epochs.get(req.joiner, -1))
            self._maybe_start_view_change()
        else:
            self._owner.send(self.view.coordinator, req, size=self.config.control_size)

    def _on_evicted(self, src: Address, msg: Evicted) -> None:
        """We were removed from the group while unreachable: reset
        membership state and rejoin through the current coordinator."""
        if self.view is None:
            return
        if msg.group_view_id < self.view.view_id:
            return  # stale
        self._owner.emit("isis.evicted", group=self.group, rejoin_via=str(msg.coordinator))
        self.view = None
        self._set_parked(False)
        self._suspects = None
        self._acting_coordinator = False
        self._change = None
        self._flushing = False
        self._queued_joins.clear()
        self._queued_leaves.clear()
        self._owner.cancel_timer("hb")
        self._owner.cancel_timer("flush-timeout")
        self._contacts = [msg.coordinator]
        self._contact_idx = 0
        self._try_join()

    def _maybe_start_view_change(self) -> None:
        if self._change is not None or not self.is_coordinator or self.view is None:
            return
        joins = [j for j in self._queued_joins if j not in self.view]
        leaves = {l for l in self._queued_leaves if l in self.view}
        if not joins and not leaves:
            self._queued_joins.clear()
            self._queued_leaves.clear()
            return
        if self.config.require_majority:
            survivors = [m for m in self.view.members if m not in leaves]
            if len(survivors) < self.view.majority():
                # minority side of a partition: do NOT install a view — keep
                # the suspicions queued and retry when connectivity returns
                self._owner.emit(
                    "isis.quorum_blocked",
                    group=self.group,
                    survivors=len(survivors),
                    needed=self.view.majority(),
                )
                return
        self._queued_joins.clear()
        self._queued_leaves.clear()
        members = self.view.without(*leaves) + tuple(joins)
        if not members:
            return
        proposed = View(self.view.view_id + 1, members)
        # survivors kept in view order: the Flush fan-out below must follow a
        # deterministic sequence, not hash-randomised set order
        survivors = [
            m for m in self.view.members if m in proposed and m != self._owner.address
        ]
        self._change = _ViewChange(
            proposed, set(survivors), self._owner.host.network.disturbances
        )
        self._flushing = True
        self._owner.emit(
            "isis.flush_start",
            group=self.group,
            proposed=proposed.view_id,
            joins=[str(j) for j in joins],
            leaves=sorted(str(l) for l in leaves),
        )
        if not survivors:
            self._finish_view_change()
            return
        flush = Flush(proposed, proposed.view_id)
        for member in survivors:
            self._owner.send(member, flush, size=self.config.control_size)
        self._owner.set_timer(self.config.flush_timeout, "flush-timeout")

    def _on_flush(self, src: Address, msg: Flush) -> None:
        if self.view is None or msg.proposed.view_id <= self.view.view_id:
            return
        self._flushing = True
        self._owner.send(
            src, FlushOk(self._owner.address, msg.change_id), size=self.config.control_size
        )

    def _on_flush_ok(self, src: Address, msg: FlushOk) -> None:
        change = self._change
        if change is None or msg.change_id != change.proposed.view_id:
            return
        if msg.sender in change.waiting_on:
            change.waiting_on.discard(msg.sender)
            if not change.waiting_on:
                self._owner.cancel_timer("flush-timeout")
                self._finish_view_change()

    def _finish_view_change(self) -> None:
        change = self._change
        assert change is not None
        self._change = None
        # the proposal always keeps the coordinator: every member it evicts
        # is another one (timed out, a straggler or a senior presumed dead)
        network = self._owner.host.network
        park = network.disturbances if self._vouched(change) else -1
        new_view = NewView(change.proposed, park)
        for member in change.proposed.members:
            if member != self._owner.address:
                self._owner.send(member, new_view, size=self.config.control_size)
        self._on_new_view(self._owner.address, new_view)

    def _vouched(self, change: _ViewChange) -> bool:
        """May the view *change* installs park at once?  When nothing
        disturbed the network since the change started, every survivor's
        FlushOk and every joiner's JoinReq was sent and received in this
        disturbance epoch — each vouches for its sender as a beat would —
        and nothing else is queued."""
        old = self.view
        assert old is not None
        epoch = change.epoch
        return (
            self._owner.host.network.disturbances == epoch
            and not self._queued_joins
            and not self._queued_leaves
            and all(
                self._join_epochs.get(m) == epoch
                for m in change.proposed.members
                if m not in old
            )
            and self._owner.host.network.calm_for(change.proposed.members)
        )

    def _on_new_view(self, src: Address, msg: NewView) -> None:
        if self.view is not None and msg.view.view_id <= self.view.view_id:
            return
        self._install(
            msg.view,
            park=msg.park >= self._voided_at and src == msg.view.coordinator,
        )

    def _install(self, view: View, park: bool = False) -> None:
        old = self.view
        old_members = set(old.members) if old else set()
        joined = [m for m in view.members if m not in old_members]
        left = [m for m in (old.members if old else ()) if m not in view]
        owner = self._owner
        now = owner.now
        first_probe = now + 4 * self.config.hb_interval
        for gone in left:
            self._alumni.setdefault(gone, (0, first_probe))
        for member in view.members:
            self._alumni.pop(member, None)
            self._join_epochs.pop(member, None)
        self.view = view
        self._flushing = False
        self._acting_coordinator = False
        self._change = None
        self._last_coord_seen = now
        self._last_seen = dict.fromkeys(view.members, now)
        self._named_at.clear()
        self._suspects = None
        owner.cancel_timer("join-retry")
        self._hb_due = now + self.config.hb_interval
        if park:
            # the change vouched for every member: install parked
            self._heard = set(view.members)
            self._heard.discard(owner.address)
            owner.cancel_timer("hb")
            self._set_parked(True)
        else:
            self._heard = set()
            self._set_parked(False)
            owner.set_timer(self.config.hb_interval, "hb")
        if self._alumni and view.coordinator == owner.address and not owner.has_timer("probe"):
            self._arm_probe()
        views = self._views
        owner.emit(
            views,
            self.group,
            view.view_id,
            # the O(n) member-name list is only built if the log actually
            # stores isis.view records (a suppressed emit is just counted)
            [str(m) for m in view.members] if views.stored else (),
            str(view.coordinator),
        )
        owner.on_view_change(view, joined, left)
        # A fresh coordinator may have inherited queued membership work.
        if self.is_coordinator:
            self._maybe_start_view_change()

    # --------------------------------------------------------- failure detect

    def on_timer(self, key: str) -> None:
        if key == "hb":
            self._heartbeat_tick()
        elif key == "probe":
            self._probe_alumni()
        elif key == "join-retry":
            self._try_join()
        elif key == "flush-timeout":
            self._flush_timed_out()

    def _heartbeat_tick(self) -> None:
        if not self.joined:
            return
        assert self.view is not None
        cfg = self.config
        now = self._owner.now
        me = self._owner.address
        network = self._owner.host.network
        self._hb_ticks += 1
        park = False
        if self.is_coordinator:
            # woken by a named edge, the coordinator watches only the named
            # members: every other one keeps its park order
            suspects = self._suspects
            # a list, in _last_seen insertion order (deterministic): the
            # emits below must not follow set-iteration order
            dead = [
                m
                for m, seen in self._last_seen.items()
                if m != me
                and now - seen > cfg.hb_timeout
                and m in self.view
                and (suspects is None or m in suspects)
            ]
            park = not dead and self._steady()
            beat = CoordBeat(
                me, self.view.view_id, network.disturbances if park else -1
            )
            beats = 0
            for member in self.view.members:
                if member != me and (suspects is None or member in suspects):
                    self._owner.send(member, beat, size=cfg.control_size)
                    beats += 1
            if dead:
                for m in dead:
                    self._owner.emit("isis.failure_detected", group=self.group, failed=str(m))
                self._queued_leaves.update(dead)
                self._maybe_start_view_change()
        else:
            self._owner.send(
                self.view.coordinator,
                Heartbeat(me, self.view.view_id, network.disturbances),
                size=cfg.control_size,
            )
            beats = 1
            rank = self.view.rank(me)
            takeover_after = cfg.hb_timeout * (1 + rank)
            if now - self._last_coord_seen > takeover_after:
                self._take_over()
        if self._tel_ticks is not None:
            self._tel_ticks.inc()
            self._tel_beats.inc(beats)
        # the phase is kept either way; parked, the beats above were the last
        self._hb_due = now + cfg.hb_interval
        if park:
            self._suspects = None
            self._set_parked(True)
        else:
            self._owner.set_timer(cfg.hb_interval, "hb")

    def _arm_probe(self) -> None:
        due = min(due for _, due in self._alumni.values())
        self._owner.set_timer(max(0.0, due - self._owner.now), "probe")

    def _probe_alumni(self) -> None:
        """Probe each departed member five times, from a timer of its own so
        the group may park meanwhile — 4 hb intervals after it left, then on
        a doubling backoff (8, 16, 32, 64 intervals).  If one of them now
        leads a rival group, the beat triggers merge resolution on its side;
        the transport retransmits a probe a drop would have lost, so one per
        period is enough."""
        if not self.is_coordinator or self.view is None:
            return
        now = self._owner.now
        period = 4 * self.config.hb_interval
        beat = CoordBeat(self._owner.address, self.view.view_id)
        probes = 0
        for alumnus, (sent, due) in list(self._alumni.items()):
            if due > now:
                continue
            self._owner.send(alumnus, beat, size=self.config.control_size)
            probes += 1
            if sent + 1 >= 5:
                del self._alumni[alumnus]  # presumed really gone
            else:
                self._alumni[alumnus] = (sent + 1, now + period * 2 ** (sent + 1))
        if self._tel_beats is not None:
            self._tel_beats.inc(probes)
        if self._alumni:
            self._arm_probe()

    def _steady(self) -> bool:
        """Coordinator side: may the group park?  Steady means nothing that
        a tick would act on or discover: the real coordinator, no view
        change or flush in progress, no queued joins or suspicions, and
        every member heard from — in this view, since the last edge that
        concerned it — on a network calm for the view's hosts (departed
        members are probed from a timer of their own).  In that state the
        dead-check and the members' takeover-check cannot fire: every
        member process is up and reachable, or the network would have
        raised the edge first."""
        assert self.view is not None
        return (
            not self._acting_coordinator
            and self._change is None
            and not self._flushing
            and not self._queued_joins
            and not self._queued_leaves
            and len(self._heard) == len(self.view) - 1
            and self._owner.host.network.calm_for(self.view.members)
        )

    def _set_parked(self, parked: bool) -> None:
        """Enter or leave the parked state, keeping the ``isis_parked`` /
        ``isis_awake`` gauges in step: a member counts in one of them while
        it is alive and joined.  Every change to that — joining, eviction,
        stop, death — passes through here."""
        self._parked = parked
        if self._tel_parked is not None:
            gauge = None
            if self._owner.alive and self.joined:
                gauge = self._tel_parked if parked else self._tel_awake
            if gauge is not self._tel_gauge:
                if self._tel_gauge is not None:
                    self._tel_gauge.dec()
                if gauge is not None:
                    gauge.inc()
                self._tel_gauge = gauge

    def _wake(self) -> None:
        """Leave the parked state.  The silence so far was agreed, so it is
        forgiven (timestamps to ``now``, as on a view change) and timeouts
        count from here; the hb timer resumes on the phase it had."""
        self._set_parked(False)
        now = self._owner.now
        self._last_coord_seen = now
        self._last_seen = dict.fromkeys(self._last_seen, now)
        due = self._hb_due
        if due < now:
            interval = self.config.hb_interval
            due += math.ceil((now - due) / interval) * interval
        self._hb_due = due
        self._owner.set_timer(max(0.0, due - now), "hb")

    def _on_disturbance(self, dying: tuple[Any, ...]) -> None:
        """The network's disturbance edge (see ``Network.disturb``): beats
        heard so far no longer vouch for anyone, and a parked member goes
        back to the explicit protocol.  An edge that names dying processes
        other than this member's coordinator touches only the named members
        of its view: the coordinator forgets having heard from them and
        watches them alone; everyone else keeps its park order."""
        view = self.view
        count = self._owner.host.network.disturbances
        if dying and view is not None:
            gone = {process.address for process in dying}
            if view.coordinator not in gone:
                named = [m for m in view.members if m in gone]
                if named and view.coordinator == self._owner.address:
                    for member in named:
                        self._named_at[member] = count
                        self._heard.discard(member)
                    if self._parked:
                        self._suspects = set(named)
                        self._wake()
                    elif self._suspects is not None:
                        # newly watched: its silence so far was agreed
                        now = self._owner.now
                        for member in named:
                            if member not in self._suspects:
                                self._last_seen[member] = now
                        self._suspects.update(named)
                return
        self._voided_at = count
        self._heard.clear()
        if self._suspects is not None:
            # the members this coordinator did not watch were parked: their
            # silence so far was agreed, as in _wake
            now = self._owner.now
            for member in self._last_seen:
                if member not in self._suspects:
                    self._last_seen[member] = now
            self._suspects = None
        if self._parked:
            self._wake()

    def _take_over(self) -> None:
        """Rank-staggered coordinator takeover: every member senior to us has
        stayed silent past its own (shorter) takeover deadline, so presume
        the whole senior prefix dead and lead a view excluding it."""
        assert self.view is not None
        rank = self.view.rank(self._owner.address)
        if self.config.require_majority and len(self.view) - rank < self.view.majority():
            # we cannot see a majority: never seize leadership from a
            # minority side — wait for the partition to heal instead
            self._owner.emit(
                "isis.quorum_blocked",
                group=self.group,
                survivors=len(self.view) - rank,
                needed=self.view.majority(),
            )
            self._last_coord_seen = self._owner.now  # back off; re-check later
            return
        presumed_dead = self.view.members[:rank]
        self._owner.emit(
            "isis.takeover",
            group=self.group,
            new_coordinator=str(self._owner.address),
            presumed_dead=[str(m) for m in presumed_dead],
        )
        self._acting_coordinator = True
        self._queued_leaves.update(presumed_dead)
        self._last_coord_seen = self._owner.now  # don't re-trigger while changing
        self._maybe_start_view_change()

    def _on_rival_coordinator(self, beat: CoordBeat) -> None:
        """Two coordinators lead disjoint groups (concurrent takeovers or a
        healed partition without quorum). Deterministic resolution: the
        higher view id wins; ties go to the lexicographically smaller
        address. The loser dissolves its group, redirecting every member
        (itself included) to rejoin the winner."""
        assert self.view is not None
        i_lose = beat.view_id > self.view.view_id or (
            beat.view_id == self.view.view_id
            and str(beat.sender) < str(self._owner.address)
        )
        if not i_lose:
            # tell the rival about us; it will dissolve on receipt
            self._owner.send(
                beat.sender,
                CoordBeat(self._owner.address, self.view.view_id),
                size=self.config.control_size,
            )
            return
        self._owner.emit(
            "isis.group_merge",
            group=self.group,
            dissolved_view=self.view.view_id,
            into=str(beat.sender),
        )
        order = Evicted(self.view.view_id, beat.sender)
        for member in self.view.members:
            if member != self._owner.address:
                self._owner.send(member, order, size=self.config.control_size)
        self._on_evicted(self._owner.address, order)

    def _flush_timed_out(self) -> None:
        """Survivors that never acknowledged the flush are treated as failed:
        restart the change without them."""
        change = self._change
        if change is None:
            return
        stragglers = set(change.waiting_on)
        self._change = None
        for m in sorted(stragglers, key=str):
            self._owner.emit("isis.flush_straggler", group=self.group, member=str(m))
        self._queued_leaves.update(stragglers)
        # Preserve the joins the aborted proposal carried.
        if self.view is not None:
            for m in change.proposed.members:
                if m not in self.view and m not in self._queued_joins:
                    self._queued_joins.append(m)
        self._maybe_start_view_change()

    #: message class -> handler(self, src, msg); one lookup per message
    _HANDLERS: dict[type, Callable[["Membership", Address, Any], None]] = {
        JoinReq: _on_join_req,
        Flush: _on_flush,
        FlushOk: _on_flush_ok,
        NewView: _on_new_view,
        Heartbeat: _on_heartbeat,
        CoordBeat: _on_coord_beat,
        Evicted: _on_evicted,
    }
