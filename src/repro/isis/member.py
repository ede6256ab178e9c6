"""The Isis-style group membership component.

A process that joins a group owns one :class:`Membership`.  It gives its
owner the toolkit facilities the paper's prototype uses, and nothing else:

- ``join`` and automatic failure eviction, with coordinator-driven
  one-round view changes (NewView, answered by a ViewAck);
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
else keeps its park order; a view change whose joiners vouched for
themselves in the current disturbance epoch installs parked, and each
member's ``ViewAck`` vouches for it as a beat would; and departed members
are probed on a backoff of their own instead of keeping the group awake.
Everything runs inside one deterministic simulator, so nothing is locked.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import Any, Callable

from repro.isis.messages import CoordBeat, Evicted, Heartbeat, JoinReq, NewView, ViewAck
from repro.isis.views import View
from repro.netsim.host import Address
from repro.netsim.process import SimProcess

#: joiner's retransmission period (s)
JOIN_RETRY = 1.0
#: wire size charged to every protocol message (bytes)
CONTROL_SIZE = 128


@dataclass
class IsisConfig:
    """Protocol timing and the quorum rule.

    Attributes:
        hb_interval: heartbeat period (s).
        hb_timeout: silence after which a member is declared failed (s);
            also how long the coordinator waits for a member's ViewAck
            before it suspects the member.
        require_majority: when True, a view change only installs if a
            strict majority of the previous view survives into the new one,
            and a takeover only once such a majority has acked its view —
            the quorum rule that prevents split-brain under network
            partitions (an extension beyond the paper's LAN prototype).
            Members on a minority side stall until the partition heals,
            then learn they were evicted and rejoin.
    """

    hb_interval: float = 0.5
    hb_timeout: float = 2.0
    require_majority: bool = False


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

        # view-change state: coordinator side, the members of the installed
        # view whose ViewAck is still due (the next change waits for them);
        # under quorum, a takeover's view that no majority has acked yet;
        # and whether this member is blocked on quorum
        self._acks_due: set[Address] = set()
        self._proposal: View | None = None
        self._queued_joins: list[Address] = []
        self._queued_leaves: set[Address] = set()
        self._quorum_blocked = False

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
        return self.view is not None and self.view.coordinator == self._owner.address

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
            size=CONTROL_SIZE,
        )
        self._owner.set_timer(JOIN_RETRY, "join-retry")

    # ------------------------------------------------------------ dispatch

    def on_message(self, src: Address, payload: Any) -> None:
        handler = self._HANDLERS.get(type(payload))
        if handler is not None:
            handler(self, src, payload)

    def _on_heartbeat(self, src: Address, msg: Heartbeat | ViewAck) -> None:
        """A beat, or a ViewAck, which vouches for its sender as a beat
        does; either one shows that the sender holds the view it names."""
        self._last_seen[msg.sender] = self._owner.now
        queued = self._queued_leaves
        if queued and msg.sender in queued:
            # a live heartbeat retracts its queued suspicion (partition heal)
            queued.discard(msg.sender)
            if not queued:
                self._quorum_blocked = False  # the blocked episode is over
        proposal, due = self._proposal, self._acks_due
        if due and msg.sender in due and msg.view_id == (proposal or self.view).view_id:
            due.discard(msg.sender)
            if proposal is not None and len(proposal) - len(due) >= self.view.majority():
                self._install(proposal)  # a takeover's view a majority acked
                self._acks_due = due
            elif not due:
                self._owner.cancel_timer("ack-timeout")
                self._maybe_start_view_change()
        view = self.view
        if view is None:
            return
        if msg.sender not in view:
            # a non-member beats us: it was evicted (losing side of a
            # partition, or a dissolved rival group) and rejoins via ours
            self._owner.send(
                msg.sender,
                Evicted(view.view_id, view.coordinator),
                size=CONTROL_SIZE,
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
            self._quorum_blocked = False  # we hear our coordinator again
            # park and wake with the coordinator, never alone: its order holds
            # if it is for this view and no edge came since it was sent
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
        view = self.view
        if view is None:
            return
        if req.joiner in view and not self._acks_due and req.joiner != view.coordinator:
            # Duplicate join (its retransmission raced the NewView): resend
            # the view.  Never to the view's own coordinator, a restarted one
            # the group has not replaced yet: it would lead stale members
            # (docs/FAULTS.md, issue 5), so it retries until a takeover.
            self._owner.send(req.joiner, NewView(view), size=CONTROL_SIZE)
            return
        if self.is_coordinator:
            if req.joiner not in self._queued_joins:
                self._queued_joins.append(req.joiner)
            epochs = self._join_epochs
            epochs[req.joiner] = max(req.epoch, epochs.get(req.joiner, -1))
            self._maybe_start_view_change()
        else:
            self._owner.send(view.coordinator, req, size=CONTROL_SIZE)

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
        self._acks_due.clear()
        self._proposal = None
        self._quorum_blocked = False
        self._queued_joins.clear()
        self._queued_leaves.clear()
        self._owner.cancel_timer("hb")
        self._owner.cancel_timer("ack-timeout")
        self._contacts = [msg.coordinator]
        self._contact_idx = 0
        self._try_join()

    def _maybe_start_view_change(self) -> None:
        """Start the queued joins and leaves as one view change, once the
        installed view's acks are in (until then they batch)."""
        if not self._acks_due and self.is_coordinator:
            self._change_view()

    def _change_view(self) -> None:
        """Install the next view here and send it to every other member.
        The proposal always keeps this member, and leads with it: every
        member it evicts is another one (silent, a straggler, or a senior
        presumed dead by a takeover).  Under quorum a takeover's view
        installs once a majority has acked it, in ``_on_heartbeat``."""
        view = self.view
        assert view is not None
        joins = [j for j in self._queued_joins if j not in view]
        leaves = {l for l in self._queued_leaves if l in view}
        if not joins and not leaves:
            self._queued_joins.clear()
            self._queued_leaves.clear()
            return
        if self._quorum_lost(len(view) - len(leaves)):
            return  # minority side of a partition: keep the suspicions queued
        self._queued_joins.clear()
        self._queued_leaves.clear()
        new_view = View(view.view_id + 1, view.without(*leaves) + tuple(joins))
        owner = self._owner
        network = owner.host.network
        # the park order: each joiner vouched for itself with its JoinReq in
        # this disturbance epoch; each survivor vouches with its ViewAck
        epoch = network.disturbances
        vouched = all(self._join_epochs.get(j) == epoch for j in joins)
        pending = self.config.require_majority and not self.is_coordinator
        park = epoch if vouched and not pending and network.calm_for(new_view.members) else -1
        owner.emit(
            "isis.view_start",
            group=self.group,
            proposed=new_view.view_id,
            joins=[str(j) for j in joins],
            leaves=sorted(str(l) for l in leaves),
        )
        order = NewView(new_view, park)
        # view order: the fan-out must follow a deterministic sequence
        others = new_view.members[1:]
        for member in others:
            owner.send(member, order, size=CONTROL_SIZE)
        if pending:
            self._proposal = new_view
        else:
            self._install(new_view, park=park >= 0)
        if others:
            self._acks_due = set(others)
            owner.set_timer(self.config.hb_timeout, "ack-timeout")

    def _on_new_view(self, src: Address, msg: NewView) -> None:
        view = msg.view
        if self.view is not None and view.view_id <= self.view.view_id:
            return
        self._install(view, park=msg.park >= self._voided_at and src == view.coordinator)
        owner = self._owner
        owner.send(
            view.coordinator,
            ViewAck(owner.address, view.view_id, owner.host.network.disturbances),
            size=CONTROL_SIZE,
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
        self._acks_due = set()
        self._proposal = None
        self._quorum_blocked = False
        self._last_coord_seen = now
        self._last_seen = dict.fromkeys(view.members, now)
        self._named_at.clear()
        self._suspects = None
        # the coordinator hears from each member again through its ViewAck
        self._heard = set()
        owner.cancel_timer("join-retry")
        self._hb_due = now + self.config.hb_interval
        if park:
            owner.cancel_timer("hb")
            self._set_parked(True)
        else:
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

    # --------------------------------------------------------- failure detect

    def on_timer(self, key: str) -> None:
        if key == "hb":
            self._heartbeat_tick()
        elif key == "probe":
            self._probe_alumni()
        elif key == "join-retry":
            self._try_join()
        elif key == "ack-timeout":
            self._ack_timed_out()

    def _heartbeat_tick(self) -> None:
        view = self.view
        if view is None:
            return
        cfg = self.config
        now = self._owner.now
        me = self._owner.address
        network = self._owner.host.network
        self._hb_ticks += 1
        park = False
        if view.coordinator == me:
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
                and m in view
                and (suspects is None or m in suspects)
            ]
            park = not dead and self._steady()
            beat = CoordBeat(me, view.view_id, network.disturbances if park else -1)
            beats = 0
            for member in view.members:
                if member != me and (suspects is None or member in suspects):
                    self._owner.send(member, beat, size=CONTROL_SIZE)
                    beats += 1
            if dead:
                queued = self._queued_leaves
                for m in dead:
                    if m not in queued:  # suspected once, not at every tick
                        self._owner.emit(
                            "isis.failure_detected", group=self.group, failed=str(m)
                        )
                queued.update(dead)
                self._maybe_start_view_change()
        else:
            self._owner.send(
                view.coordinator,
                Heartbeat(me, view.view_id, network.disturbances),
                size=CONTROL_SIZE,
            )
            beats = 1
            rank = view.rank(me)
            takeover_after = cfg.hb_timeout * (1 + rank)
            if now - self._last_coord_seen > takeover_after:
                self._take_over()
        if self._tel_ticks is not None:
            self._tel_ticks.inc()
            self._tel_beats.inc(beats)
        if self.view is not view:
            return  # the tick installed a view, which set the hb timer itself
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
        a doubling backoff (8 ... 64 intervals).  If one of them now leads a
        rival group, the beat triggers merge resolution on its side."""
        if not self.is_coordinator or self.view is None:
            return
        now = self._owner.now
        period = 4 * self.config.hb_interval
        beat = CoordBeat(self._owner.address, self.view.view_id)
        probes = 0
        for alumnus, (sent, due) in list(self._alumni.items()):
            if due > now:
                continue
            self._owner.send(alumnus, beat, size=CONTROL_SIZE)
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
        """Coordinator side: may the group park?  Steady means every ack of
        the installed view in, nothing queued, and every member heard from —
        by its ack or a beat, in this view, since the last edge that
        concerned it — on a network calm for the view's hosts.  Then no
        dead-check or takeover-check can fire: every member is up and
        reachable, or the network would have raised the edge first."""
        assert self.view is not None
        return (
            not self._acks_due
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
        the whole senior prefix dead and install a view excluding it — at
        once, or under quorum once a majority has acked it."""
        view = self.view
        assert view is not None
        rank = view.rank(self._owner.address)
        self._last_coord_seen = self._owner.now  # re-checked one deadline later
        if self._quorum_lost(len(view) - rank):
            return  # never seize leadership from a minority side
        presumed_dead = view.members[:rank]
        if not self._quorum_blocked:  # a blocked member retries silently
            self._owner.emit(
                "isis.takeover",
                group=self.group,
                new_coordinator=str(self._owner.address),
                presumed_dead=[str(m) for m in presumed_dead],
            )
        self._queued_leaves.update(presumed_dead)
        self._change_view()

    def _quorum_lost(self, survivors: int) -> bool:
        """Under ``require_majority``, are *survivors* no majority of the
        view?  Logged once per blocked episode, which ends when a view
        installs, the member is evicted, a heartbeat retracts its last
        queued suspicion or it hears its coordinator again."""
        view = self.view
        assert view is not None
        if not self.config.require_majority or survivors >= view.majority():
            return False
        if not self._quorum_blocked:
            self._quorum_blocked = True
            self._owner.emit(
                "isis.quorum_blocked",
                group=self.group,
                survivors=survivors,
                needed=view.majority(),
            )
        return True

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
                size=CONTROL_SIZE,
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
                self._owner.send(member, order, size=CONTROL_SIZE)
        self._on_evicted(self._owner.address, order)

    def _ack_timed_out(self) -> None:
        """Members whose ViewAck did not arrive within ``hb_timeout`` are
        suspects for the next view, as a silent member is; a parked
        coordinator wakes to watch them."""
        proposal = self._proposal
        if proposal is not None:
            # no majority acked the takeover's view: stand down, retry later
            self._proposal = None
            self._quorum_lost(len(proposal) - len(self._acks_due))
            self._acks_due.clear()
            return
        view = self.view
        assert view is not None
        stragglers = [m for m in view.members if m in self._acks_due]
        if not stragglers:
            return  # a NewView from another coordinator replaced the view
        self._acks_due.clear()
        for m in stragglers:
            self._owner.emit("isis.ack_straggler", group=self.group, member=str(m))
        self._queued_leaves.update(stragglers)
        if self._parked:
            self._wake()
        self._maybe_start_view_change()

    #: message class -> handler(self, src, msg); one lookup per message
    _HANDLERS: dict[type, Callable[["Membership", Address, Any], None]] = {
        JoinReq: _on_join_req,
        NewView: _on_new_view,
        ViewAck: _on_heartbeat,
        Heartbeat: _on_heartbeat,
        CoordBeat: _on_coord_beat,
        Evicted: _on_evicted,
    }
