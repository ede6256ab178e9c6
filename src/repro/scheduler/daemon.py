"""The scheduling/dispatching daemon.

One :class:`SchedulerDaemon` runs on every machine "authorized to host
remote executions". Daemons of one machine class form an Isis process
group; the group's coordinator (oldest member) acts as group leader and
runs the C-style ``groupLeader()`` loop from §5:

    receiveRequest → bcastRequestToGroup → collect bids →
    sortBidsByLoad → returnBids | returnAllocError

The broadcast is a fan-out of point-to-point ``DiscloseProbe`` messages,
one bidding round however the view is cut: the leader partitions its view
into ``leader_fanout`` cells (:mod:`repro.scheduler.hierarchy`) and has each
polled cell probed by its sub-leader, or by the leader itself when the cell
contains it — at the default fanout of 1, one cell that the leader probes
directly, every round.  Every daemon (leader included) answers the
state-disclosure probe with a ``ProbeReply``: a bid when it is "not already
excessively loaded and can run remote jobs", else a decline.
Unsatisfiable requests flagged ``queue_if_insufficient`` enter the leader's
:class:`~repro.scheduler.queue.AgingQueue` and are retried periodically.
Only the coordinator holds that queue, and it is soft state: the execution
program keeps each outstanding request and re-sends it when the group's
leader changes, so a successor re-learns the queue from the requesters
(with each request's age, which starts at ``issued_at``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.isis.member import IsisConfig, Membership
from repro.isis.views import View
from repro.netsim.host import Address
from repro.netsim.process import SimProcess
from repro.runtime.instance import live_instances
from repro.scheduler.directory import GroupDirectory
from repro.scheduler.hierarchy import CellMap, build_cells
from repro.scheduler.messages import (
    AllocationError_,
    AllocationReply,
    CellBids,
    DelegateRequest,
    DiscloseProbe,
    MachineBid,
    ProbeReply,
    ResourceRequest,
    SetPriority,
)
from repro.scheduler.queue import AgingQueue
from repro.trace.context import TraceContext, trace_fields

if TYPE_CHECKING:  # pragma: no cover
    from repro.machines.machine import Machine


@dataclass
class DaemonConfig:
    """Daemon policy knobs.

    Attributes:
        busy_threshold: above this load a daemon declines to bid
            ("not already excessively loaded").
        per_instance_load: load attributed to each live VCE instance on the
            machine when reporting "current load".
        bid_timeout: how long the leader collects bids before deciding.
        retry_interval: queued-request retry period.
        aging_rate: priority gained per second of queue wait (§4.3).
        leader_fanout: number of sub-leader cells the group leader splits
            its view into (see :mod:`repro.scheduler.hierarchy`).  1 (the
            default) is one cell: the leader probes every member itself,
            the paper's flat broadcast; >1 delegates each bidding round to
            consistent-hash-assigned cells and escalates in cached-load
            order only while bids run short.
    """

    busy_threshold: float = 0.8
    per_instance_load: float = 0.25
    bid_timeout: float = 1.0
    retry_interval: float = 2.0
    aging_rate: float = 0.1
    leader_fanout: int = 1


@dataclass
class _HierRound:
    """Root-leader state for one bidding round."""

    request: ResourceRequest
    cell_map: CellMap
    order: list[int]  # cells in polling order (primary first)
    next_index: int = 0  # next cell in *order* to delegate to
    awaiting: int | None = None  # delegated cell that has not reported
    reports: dict[int, tuple[MachineBid, ...]] = field(default_factory=dict)
    polled: int = 0  # members covered by reported cells


@dataclass
class _CellRound:
    """Sub-leader state for one delegated cell poll."""

    delegate: DelegateRequest
    pending: int = 0  # probes still outstanding
    bids: list[MachineBid] = field(default_factory=list)


class SchedulerDaemon(SimProcess):
    """See module docstring.

    Args:
        name: process name (conventionally ``"vced"``).
        machine: this host's machine description.
        directory: shared leader directory kept fresh from view changes.
        contacts: existing group members to join through.
        config: daemon policy; isis_config: group-protocol timing.
    """

    def __init__(
        self,
        name: str,
        machine: "Machine",
        directory: GroupDirectory,
        contacts: list[Address] | None = None,
        config: DaemonConfig | None = None,
        isis_config: IsisConfig | None = None,
    ) -> None:
        super().__init__(name)
        self.membership = Membership(self, f"vce.{machine.arch_class.value}", contacts, isis_config)
        self.machine = machine
        self.directory = directory
        self.daemon_config = config or DaemonConfig()
        # load is asked for several times per disclosure (can-bid check, the
        # bid itself, decline emits); cache it per timestamp
        self._load_cache_time = -1.0
        self._load_cache = 0.0
        self.pending_queue = AgingQueue(self.daemon_config.aging_rate)
        self._collecting: dict[str, ResourceRequest] = {}
        self._bid_spans: dict[str, TraceContext] = {}  # req_id -> bidding span
        # bidding rounds: the view's cell partition, live rounds at this
        # root, live cell polls at this sub-leader, and the cached per-cell
        # aggregate load that orders escalation (see
        # repro.scheduler.hierarchy)
        self._cell_map: CellMap | None = None
        self._hier_rounds: dict[str, _HierRound] = {}
        self._cell_rounds: dict[str, _CellRound] = {}
        self._cell_loads: dict[int, float] = {}
        self.delegations_sent = 0
        self.bids_made = 0
        self.requests_led = 0
        #: members covered by this leader's disclosure fan-outs (fanout 1:
        #: the whole view per round; more cells: only the cells polled) —
        #: the quantity the hierarchy makes sub-linear, reported per round by
        #: ``repro soak`` and pinned by the cost ledger as
        #: ``bid_fanout_per_round``
        self.members_polled = 0
        #: operator drain: a draining daemon declines every new bid (its
        #: running instances finish normally) until undrained — flipped by
        #: ``VirtualComputingEnvironment.drain_host`` / the control plane
        self.draining = False

    def on_start(self) -> None:
        self.membership.start()

    def on_stop(self) -> None:
        self.membership.stop()

    on_crash = on_stop

    def _tel(self):
        """The live metrics registry, or None when telemetry is off. Looked
        up per call: the daemon is constructed before it is bound to a
        host (and hence before it can reach the simulator)."""
        return self.sim.telemetry if self.host is not None else None

    # ------------------------------------------------------------------ load

    def current_load(self) -> float:
        """Background (locally-initiated) load plus the VCE instances live on
        this machine (its own process table, not what any message
        announced).  Cached per simulation timestamp."""
        now = self.now
        if now != self._load_cache_time:
            self._load_cache = (
                self.machine.load_at(now)
                + self.daemon_config.per_instance_load * len(live_instances(self.host))
            )
            self._load_cache_time = now
        return self._load_cache

    def can_bid(self) -> bool:
        return (
            not self.draining
            and self.current_load() < self.daemon_config.busy_threshold
        )

    def make_bid(self) -> MachineBid:
        return MachineBid(
            machine=self.machine.name,
            daemon=self.address,
            load=self.current_load(),
            speed=self.machine.speed,
            arch_class=self.machine.arch_class,
            free_memory_mb=self.machine.memory_mb,
            site=str(self.machine.attributes.get("site", "")),
        )

    # ------------------------------------------------------- membership hooks

    def on_view_change(self, view: View, joined: list[Address], left: list[Address]) -> None:
        if self.membership.is_coordinator:
            self.directory.update(
                self.machine.arch_class, self.address, list(view.members), view.view_id
            )
            self.emit("sched.leader", group=self.membership.group, view_id=view.view_id)
            if self.pending_queue:
                self.set_timer(self.daemon_config.retry_interval, "retry-queue")
            # peer takeover: the surviving coordinator reports departed
            # members' hosts lost, so failover can reclaim orphaned work
            for member in left:
                self.emit("sched.peer_lost", group=self.membership.group, host=member.host)
                tel = self._tel()
                if tel is not None:
                    tel.counter(
                        "daemon_peers_lost_total",
                        "group members dropped from a view (leader-observed)",
                    ).inc()
                for hook in self.directory.host_lost_hooks:
                    hook(member.host)
        elif self.pending_queue:
            # deposed (e.g. we led a minority view and lost the merge): the
            # new leader learns these requests from their programs, which
            # re-send on the directory's leader change
            hb = self.sim.hb
            if hb is not None:
                hb.write(f"queue:{self.machine.name}", "R001", "daemon.queue_drop")
            self.pending_queue.clear()

    # ----------------------------------------------------------- leader side

    def _on_resource_request(self, src: Address, request: ResourceRequest) -> None:
        view = self.membership.view
        if view is None:
            return
        if not self.membership.is_coordinator:
            # forward to the leader (the execution program may hold a stale
            # directory entry across a leader failure)
            self.send(view.coordinator, request, size=512)
            return
        if request.queue_if_insufficient and (self.pending_queue or self._collecting):
            # a backlog exists: fresh queueable arrivals take their place in
            # the aged-priority order rather than racing the queue (§4.3)
            if request.req_id not in self.pending_queue and request.req_id not in self._collecting:
                self._enqueue(request)
            if not self._collecting:
                self.set_timer(0.0, "retry-queue")
            return
        self._start_bidding(request)

    def _enqueue(self, request: ResourceRequest) -> None:
        hb = self.sim.hb
        if hb is not None:
            hb.write(f"queue:{self.machine.name}", "R001", "daemon.queue_push")
        self.pending_queue.push(request, request.issued_at)

    def _on_set_priority(self, src: Address, msg: SetPriority) -> None:
        """Runtime priority change for a queued request (§4.3). Leaders
        apply it and tell the requester, whose re-send after a leader
        change then carries it; non-leaders forward."""
        view = self.membership.view
        if view is None:
            return
        if not self.membership.is_coordinator:
            self.send(view.coordinator, msg, size=128)
            return
        if msg.req_id not in self.pending_queue:
            return
        hb = self.sim.hb
        if hb is not None:
            hb.write(f"queue:{self.machine.name}", "R001", "daemon.queue_priority")
        item = self.pending_queue.reprioritize(msg.req_id, msg.priority)
        self.emit("sched.reprioritized", req_id=msg.req_id, priority=msg.priority)
        self.send(item.request.reply_to, msg, size=128)

    def _start_bidding(self, request: ResourceRequest) -> None:
        self.requests_led += 1
        tel = self._tel()
        if tel is not None:
            tel.counter("sched_requests_total", "bidding rounds led").inc()
        # each bidding round is its own span under the requester's
        # allocation span (queued requests get a fresh span per retry)
        if request.trace is not None:
            self._bid_spans[request.req_id] = request.trace.child(
                self.sim.ids.next("span")
            )
        self.emit("sched.request", app=request.app, req_id=request.req_id,
                  needed=request.total_min,
                  **trace_fields(self._bid_spans.get(request.req_id)))
        self._collecting[request.req_id] = request
        self._start_hier_round(request)

    def _finish_round(
        self,
        request: ResourceRequest,
        bids: list[MachineBid],
        bid_span: TraceContext | None,
    ) -> None:
        """Decision tail of a bidding round: sort, reply-or-error, and queue
        maintenance."""
        # sortBidsByLoad(); ties broken by speed (faster first), then name
        bids.sort(key=lambda b: (b.load, -b.speed, b.machine))
        tel = self._tel()
        if tel is not None:
            tel.histogram(
                "sched_bid_count", "bids collected per round", start=1.0, factor=2.0, count=10
            ).observe(float(len(bids)))
        if len(bids) < request.total_min:
            if tel is not None:
                tel.counter(
                    "sched_alloc_errors_total", "bidding rounds with too few bids"
                ).inc()
            queued = request.queue_if_insufficient
            self.emit(
                "sched.alloc_error",
                app=request.app,
                req_id=request.req_id,
                requested=request.total_min,
                available=len(bids),
                queued=queued,
                **trace_fields(bid_span),
            )
            self.send(
                request.reply_to,
                AllocationError_(request.req_id, request.total_min, len(bids), queued),
                size=256,
            )
            if queued and request.req_id not in self.pending_queue:
                self._enqueue(request)
            if self.pending_queue:
                self.set_timer(self.daemon_config.retry_interval, "retry-queue")
            return
        if request.req_id in self.pending_queue:
            hb = self.sim.hb
            if hb is not None:
                hb.write(f"queue:{self.machine.name}", "R001", "daemon.queue_served")
            self.pending_queue.remove(request.req_id)
        if tel is not None:
            tel.counter("sched_allocs_total", "successful allocations").inc()
        self.emit("sched.alloc", app=request.app, req_id=request.req_id, bids=len(bids),
                  **trace_fields(bid_span))
        self.send(request.reply_to, AllocationReply(request.req_id, tuple(bids)), size=1024)
        if self.pending_queue:
            self.set_timer(self.daemon_config.retry_interval, "retry-queue")

    # ---------------------------------------------------- bidding round root

    def _cell_map_for_view(self) -> CellMap:
        assert self.membership.view is not None
        if self._cell_map is None or self._cell_map.view_id != self.membership.view.view_id:
            self._cell_map = build_cells(
                list(self.membership.view.members),
                self.daemon_config.leader_fanout,
                self.membership.view.view_id,
            )
            tel = self._tel()
            if tel is not None:
                tel.gauge(
                    "sched_cells", "occupied sub-leader cells in the current view"
                ).set(len(self._cell_map.cell_ids))
        return self._cell_map

    def _start_hier_round(self, request: ResourceRequest) -> None:
        if request.req_id in self._hier_rounds:
            return  # a requester retry raced an in-flight round
        cell_map = self._cell_map_for_view()
        round_ = _HierRound(
            request,
            cell_map,
            cell_map.escalation_order(request.req_id, self._cell_loads),
        )
        self._hier_rounds[request.req_id] = round_
        self._delegate_next(round_)

    def _delegate_next(self, round_: _HierRound) -> None:
        cell = round_.order[round_.next_index]
        round_.next_index += 1
        round_.awaiting = cell
        members = round_.cell_map.members_of(cell)
        # the leader is the oldest member of the view, so it is the
        # sub-leader of its own cell and polls that cell itself
        me = self.address
        sub_leader = round_.cell_map.sub_leader(cell)
        escalated = round_.next_index > 1
        self.delegations_sent += 1
        self.members_polled += len(members)
        tel = self._tel()
        if tel is not None:
            tel.counter("sched_delegations_total", "cell polls delegated").inc()
            if escalated:
                tel.counter(
                    "sched_escalations_total",
                    "delegations beyond a request's primary cell",
                ).inc()
        req_id = round_.request.req_id
        self.emit(
            "sched.delegate",
            req_id=req_id,
            cell=cell,
            sub_leader=sub_leader.host,
            members=len(members),
            escalated=escalated,
            **trace_fields(self._bid_spans.get(req_id)),
        )
        # generous bound: delegate hop + the sub-leader's own collection
        # window + report hop; a dead sub-leader costs one window, not the
        # round
        self.set_timer(self.daemon_config.bid_timeout * 2 + 0.5, f"hier:{req_id}")
        message = DelegateRequest(round_.request, cell, members, me)
        if sub_leader == me:
            self._on_delegate(me, message)
        else:
            self.send(sub_leader, message, size=768)

    def _on_cell_bids(self, src: Address, msg: CellBids) -> None:
        # cache the aggregate even when the round is gone: stale reports
        # still teach the root where capacity is
        self._cell_loads[msg.cell] = msg.mean_load
        round_ = self._hier_rounds.get(msg.req_id)
        if round_ is None or msg.cell in round_.reports:
            return
        round_.reports[msg.cell] = msg.bids
        round_.polled += msg.polled
        if round_.awaiting == msg.cell:
            round_.awaiting = None
            self.cancel_timer(f"hier:{msg.req_id}")
        self.emit(
            "sched.cell_bids",
            req_id=msg.req_id,
            cell=msg.cell,
            bids=len(msg.bids),
            polled=msg.polled,
        )
        self._hier_check(round_)

    def _hier_timeout(self, req_id: str) -> None:
        round_ = self._hier_rounds.get(req_id)
        if round_ is None or round_.awaiting is None:
            return
        tel = self._tel()
        if tel is not None:
            tel.counter(
                "sched_cell_timeouts_total", "cell polls that never reported"
            ).inc()
        self.emit("sched.cell_timeout", req_id=req_id, cell=round_.awaiting)
        round_.awaiting = None
        self._hier_check(round_)

    def _hier_check(self, round_: _HierRound) -> None:
        request = round_.request
        bids = [
            bid
            for cell in round_.order
            if cell in round_.reports
            for bid in round_.reports[cell]
        ]
        if len(bids) < request.total_min:
            if round_.awaiting is not None:
                return  # a cell is still being polled
            if round_.next_index < len(round_.order):
                self._delegate_next(round_)
                return
        # enough bids, or every cell polled: decide
        self._hier_rounds.pop(request.req_id, None)
        self.cancel_timer(f"hier:{request.req_id}")
        self._collecting.pop(request.req_id, None)
        bid_span = self._bid_spans.pop(request.req_id, None)
        if not self.alive or not self.membership.is_coordinator:
            return
        self._finish_round(request, bids, bid_span)

    # ------------------------------------------------------- cell sub-leader

    def _on_delegate(self, src: Address, msg: DelegateRequest) -> None:
        if not self.alive or msg.request.req_id in self._cell_rounds:
            return
        round_ = _CellRound(msg)
        self._cell_rounds[msg.request.req_id] = round_
        self.emit(
            "sched.cell_poll",
            req_id=msg.request.req_id,
            cell=msg.cell,
            members=len(msg.members),
        )
        own = self._disclose_bid()
        if own is not None:
            round_.bids.append(own)
        probe = DiscloseProbe(msg.request.req_id, self.address)
        for member in msg.members:
            if member == self.address:
                continue
            round_.pending += 1
            self.send(member, probe, size=128)
        if round_.pending == 0:
            self._cell_finish(round_)
        else:
            self.set_timer(self.daemon_config.bid_timeout, f"cell:{msg.request.req_id}")

    def _on_probe_reply(self, src: Address, msg: ProbeReply) -> None:
        round_ = self._cell_rounds.get(msg.req_id)
        if round_ is None:
            return
        if msg.bid is not None:
            round_.bids.append(msg.bid)
        round_.pending -= 1
        if round_.pending == 0:
            self.cancel_timer(f"cell:{msg.req_id}")
            self._cell_finish(round_)

    def _cell_finish(self, round_: _CellRound) -> None:
        msg = round_.delegate
        req_id = msg.request.req_id
        self._cell_rounds.pop(req_id, None)
        report = CellBids(req_id, msg.cell, tuple(round_.bids), polled=len(msg.members))
        if msg.root == self.address:
            self._on_cell_bids(self.address, report)
        else:
            self.send(msg.root, report, size=1024)

    # ------------------------------------------------------------ member side

    def _on_disclose_probe(self, src: Address, probe: DiscloseProbe) -> None:
        self.send(probe.reply_to, ProbeReply(probe.req_id, self._disclose_bid()), size=256)

    def _disclose_bid(self) -> MachineBid | None:
        """Answer one state disclosure (a probe, or the sub-leader's own):
        a bid when "not already excessively loaded", else a decline."""
        tel = self._tel()
        if self.can_bid():
            self.bids_made += 1
            if tel is not None:
                tel.counter("sched_bids_total", "bids offered").inc()
            return self.make_bid()
        if tel is not None:
            tel.counter(
                "sched_declines_total", "disclosures declined (too loaded)"
            ).inc()
        self.emit("sched.decline", load=self.current_load())
        return None

    # ---------------------------------------------------------------- timers

    def on_timer(self, key: str) -> None:
        if key == "retry-queue":
            self._retry_queued()
        elif key.startswith("hier:"):
            self._hier_timeout(key[len("hier:"):])
        elif key.startswith("cell:"):
            round_ = self._cell_rounds.get(key[len("cell:"):])
            if round_ is not None:
                self._cell_finish(round_)
        else:
            self.membership.on_timer(key)

    def _retry_queued(self) -> None:
        if not self.membership.is_coordinator or not self.pending_queue:
            return
        if self._collecting:
            # one bidding round at a time: queue order must not be bypassed
            # by overlapping disclosure rounds
            self.set_timer(self.daemon_config.retry_interval, "retry-queue")
            return
        hb = self.sim.hb
        if hb is not None:
            hb.write(f"queue:{self.machine.name}", "R001", "daemon.queue_retry")
        item = self.pending_queue.peek(self.now)
        if item is None or item.request.req_id in self._collecting:
            return
        item.attempts += 1
        tel = self._tel()
        if tel is not None:
            tel.counter("sched_retries_total", "queued-request retries").inc()
            tel.histogram(
                "sched_queue_wait_seconds", "wait before a queued retry"
            ).observe(self.now - item.enqueued_at)
        self.emit(
            "sched.retry",
            req_id=item.request.req_id,
            attempts=item.attempts,
            waited=self.now - item.enqueued_at,
            effective_priority=item.effective_priority(self.now, self.pending_queue.aging_rate),
            **trace_fields(item.request.trace),
        )
        self._start_bidding(item.request)

    def on_message(self, src: Address, payload: Any) -> None:
        handler = self._HANDLERS.get(type(payload))
        if handler is None:
            self.membership.on_message(src, payload)
        else:
            handler(self, src, payload)

    #: the scheduler's own messages; every other type is the membership's
    _HANDLERS = {
        ResourceRequest: _on_resource_request,
        SetPriority: _on_set_priority,
        DelegateRequest: _on_delegate,
        DiscloseProbe: _on_disclose_probe,
        ProbeReply: _on_probe_reply,
        CellBids: _on_cell_bids,
    }
