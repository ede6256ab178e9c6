"""Scale-conformance property tests (hypothesis).

The soak generator and hierarchical group leaders rest on three
mechanisms whose invariants must hold for *any* input, not just the
examples the soak regression happens to exercise:

- the consistent-hash ring (``repro.util.hashing``) — a join or leave
  moves only the keys the changed node owns, so daemon churn cannot
  reshuffle sub-leader cells wholesale;
- tenant quota accounting (``repro.core.tenancy``) — a tenant's admitted
  concurrent instances never exceed its quota under any admit/release
  interleaving, and the peak gauges track exactly;
- the aging admission queue (``repro.scheduler.queue``) — a waiting
  request's effective priority grows until it outranks any fixed-priority
  newcomer, so low-priority tenants never starve (§4.3).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.tenancy import QuotaExceededError, TenantRegistry, TenantSpec
from repro.machines import MachineClass
from repro.netsim.host import Address
from repro.scheduler import AgingQueue, ResourceRequest
from repro.scheduler.hierarchy import build_cells
from repro.util.hashing import ConsistentHashRing

host_names = st.lists(
    st.text(alphabet="abcdefghij", min_size=1, max_size=6).map(lambda s: f"ws-{s}"),
    min_size=2,
    max_size=14,
    unique=True,
)
ring_keys = st.lists(
    st.text(alphabet="0123456789abcdef", min_size=1, max_size=12),
    min_size=1,
    max_size=40,
    unique=True,
)


# ------------------------------------------------------- consistent hashing


class TestRingStability:
    @given(nodes=host_names, keys=ring_keys)
    def test_leave_moves_only_the_victims_keys(self, nodes, keys):
        ring = ConsistentHashRing(nodes)
        before = {k: ring.lookup(k) for k in keys}
        victim = nodes[0]
        after = ConsistentHashRing([n for n in nodes if n != victim])
        for k in keys:
            if before[k] != victim:
                assert after.lookup(k) == before[k]

    @given(nodes=host_names, keys=ring_keys)
    def test_join_moves_keys_only_to_the_new_node(self, nodes, keys):
        newcomer, *rest = nodes
        ring = ConsistentHashRing(rest)
        before = {k: ring.lookup(k) for k in keys}
        after = ConsistentHashRing(rest + [newcomer])
        for k in keys:
            if after.lookup(k) != newcomer:
                assert after.lookup(k) == before[k]

    @given(nodes=host_names, keys=ring_keys)
    def test_lookup_is_order_and_duplicate_insensitive(self, nodes, keys):
        a = ConsistentHashRing(nodes)
        b = ConsistentHashRing(list(reversed(nodes)) + [nodes[0]])
        for k in keys:
            assert a.lookup(k) == b.lookup(k)


# ------------------------------------------------------- sub-leader cells


def _cell_of(cell_map) -> dict[str, int]:
    return {
        m.host: cid
        for cid in cell_map.cell_ids
        for m in cell_map.members_of(cid)
    }


class TestCellStability:
    @given(hosts=host_names, fanout=st.integers(1, 8))
    def test_membership_churn_does_not_reshuffle_cells(self, hosts, fanout):
        """A member's cell depends only on its own host name: after one
        daemon leaves the view, every survivor keeps its cell id."""
        members = [Address(h, "vced") for h in hosts]
        full = _cell_of(build_cells(members, fanout))
        partial = _cell_of(build_cells(members[1:], fanout))
        assert partial == {h: c for h, c in full.items() if h != hosts[0]}

    @given(hosts=host_names, fanout=st.integers(1, 8))
    def test_view_order_does_not_change_assignment(self, hosts, fanout):
        members = [Address(h, "vced") for h in hosts]
        assert _cell_of(build_cells(members, fanout)) == _cell_of(
            build_cells(list(reversed(members)), fanout)
        )

    @given(
        hosts=host_names,
        fanout=st.integers(1, 8),
        req_id=st.text(alphabet="0123456789abcdef-", min_size=1, max_size=16),
        loads=st.lists(st.floats(0.0, 2.0, allow_nan=False), max_size=8),
    )
    def test_escalation_order_is_a_permutation_from_the_primary(
        self, hosts, fanout, req_id, loads
    ):
        cell_map = build_cells([Address(h, "vced") for h in hosts], fanout)
        primary = cell_map.route(req_id)
        assert primary in cell_map.cell_ids
        cell_loads = dict(zip(cell_map.cell_ids, loads))
        order = cell_map.escalation_order(req_id, cell_loads)
        assert order[0] == primary
        assert sorted(order) == sorted(cell_map.cell_ids)

    @given(
        hosts=host_names,
        fanout=st.integers(1, 8),
        req_ids=st.lists(
            st.text(alphabet="0123456789abcdef-", min_size=1, max_size=16),
            min_size=1, max_size=6,
        ),
        loads=st.lists(st.floats(0.0, 2.0, allow_nan=False), max_size=8),
    )
    def test_memoized_rings_route_like_a_fresh_build(self, hosts, fanout, req_ids, loads):
        """build_cells reuses its rings across views: a map built from
        warm caches places, routes and escalates exactly as rings built
        afresh from the same names do."""
        members = [Address(h, "vced") for h in hosts]
        build_cells(members, fanout)
        cell_map = build_cells(members, fanout)
        slots = ConsistentHashRing([f"cell-{i}" for i in range(fanout)])
        assert _cell_of(cell_map) == {
            h: int(slots.lookup(h).removeprefix("cell-")) for h in hosts
        }
        router = ConsistentHashRing([f"cell-{c}" for c in cell_map.cell_ids])
        cell_loads = dict(zip(cell_map.cell_ids, loads))
        for req_id in req_ids:
            primary = int(router.lookup(req_id).removeprefix("cell-"))
            rest = sorted(
                (c for c in cell_map.cell_ids if c != primary),
                key=lambda c: (cell_loads.get(c, -1.0), c),
            )
            assert cell_map.route(req_id) == primary
            assert cell_map.escalation_order(req_id, cell_loads) == [primary, *rest]


# ------------------------------------------------------------ tenant quotas


quota_ops = st.lists(
    st.tuples(st.sampled_from(["admit", "release"]), st.integers(1, 30)),
    max_size=60,
)


class TestQuotaInvariant:
    @given(quota=st.integers(1, 50), ops=quota_ops)
    def test_admitted_never_exceeds_quota(self, quota, ops):
        registry = TenantRegistry([TenantSpec("t", quota=quota)])
        ledger = peak = 0
        for op, n in ops:
            if op == "admit":
                if ledger + n <= quota:
                    assert registry.can_admit("t", n)
                    registry.admit("t", n)
                    ledger += n
                    peak = max(peak, ledger)
                else:
                    assert not registry.can_admit("t", n)
                    with pytest.raises(QuotaExceededError):
                        registry.admit("t", n)
            else:
                freed = min(n, ledger)
                registry.release("t", freed)
                ledger -= freed
            state = registry.state("t")
            assert state.admitted == ledger <= quota
            assert registry.admitted_total == ledger
        assert registry.state("t").peak_admitted == peak
        assert registry.peak_admitted_total == peak

    @given(
        quotas=st.lists(st.integers(1, 40), min_size=2, max_size=5),
        ops=st.lists(
            st.tuples(
                st.integers(0, 4),
                st.sampled_from(["admit", "release"]),
                st.integers(1, 20),
            ),
            max_size=80,
        ),
    )
    def test_tenants_are_isolated(self, quotas, ops):
        """One tenant's admissions never consume another's quota."""
        specs = [TenantSpec(f"t{i}", quota=q) for i, q in enumerate(quotas)]
        registry = TenantRegistry(specs)
        ledgers = [0] * len(quotas)
        for idx, op, n in ops:
            idx %= len(quotas)
            name = f"t{idx}"
            if op == "admit" and ledgers[idx] + n <= quotas[idx]:
                registry.admit(name, n)
                ledgers[idx] += n
            elif op == "release":
                freed = min(n, ledgers[idx])
                registry.release(name, freed)
                ledgers[idx] -= freed
        for idx, expect in enumerate(ledgers):
            assert registry.state(f"t{idx}").admitted == expect
        assert registry.admitted_total == sum(ledgers)


# ----------------------------------------------------------- priority aging


def _req(req_id: str, priority: float) -> ResourceRequest:
    return ResourceRequest(
        req_id=req_id,
        app=req_id,
        machine_class=MachineClass.WORKSTATION,
        modules=(),
        reply_to=Address("user", "test"),
        priority=priority,
    )


class TestAgingNeverStarves:
    @settings(max_examples=60)
    @given(
        gap=st.floats(0.5, 50.0, allow_nan=False),
        rate=st.floats(0.01, 1.0, allow_nan=False),
        n_late=st.integers(1, 15),
    )
    def test_aged_request_outranks_late_higher_priority_arrivals(
        self, gap, rate, n_late
    ):
        """A request of priority 0 enqueued at t=0 outranks any request of
        priority *gap* enqueued after t = gap/rate — waiting always wins
        eventually, whatever the newcomers' fixed priority advantage."""
        q = AgingQueue(aging_rate=rate)
        q.push(_req("patient", 0.0), now=0.0)
        crossover = gap / rate
        for i in range(n_late):
            q.push(_req(f"late-{i}", gap), now=crossover * 1.01 + 1.0 + i)
        now = crossover * 2 + n_late + 2.0
        order = []
        while len(q):
            order.append(q.pop(now).request.req_id)
        assert order[0] == "patient"
        assert len(order) == n_late + 1

    @settings(max_examples=60)
    @given(
        rate=st.floats(0.01, 1.0, allow_nan=False),
        arrivals=st.lists(
            st.tuples(
                st.floats(-50.0, 50.0, allow_nan=False),
                st.floats(0.0, 100.0, allow_nan=False),
            ),
            min_size=1,
            max_size=25,
        ),
    )
    def test_pop_order_is_descending_effective_priority(self, rate, arrivals):
        q = AgingQueue(aging_rate=rate)
        for i, (priority, t) in enumerate(sorted(arrivals, key=lambda a: a[1])):
            q.push(_req(f"r{i}", priority), now=t)
        now = 200.0
        popped = []
        while len(q):
            popped.append(q.pop(now).effective_priority(now, rate))
        for earlier, later in zip(popped, popped[1:]):
            assert earlier >= later - 1e-6
