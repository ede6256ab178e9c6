"""Placement policies: mapping allocated bids to task instances.

The group leader returns load-sorted bids; the execution program must then
decide which machine runs which task instance. Policies provided:

- :func:`load_sorted_assignment` — the paper's default: hand the
  least-loaded machines to instances in dispatch-priority order (user
  runtime-weight hints first, §3.1.1).
- :func:`greedy_assignment` — each task takes its individually best
  machine in arbitrary task order (the strawman of the §4.3 example).
- :func:`utilization_first_assignment` — the §4.3 machine-A rule: assign
  the most *constrained* tasks first and never hand a flexible task the
  unique feasible machine of a still-unassigned constrained task, "even if
  there are no other idle [machines] available — the second job should be
  made to wait".
- :func:`random_assignment`, :func:`round_robin_assignment` — baselines
  for experiment E2.

All policies take ``needs``: a list of ``(task, rank, candidates)`` where
*candidates* is the subset of offered machine names this instance may use
(hardware feasibility), ordered by preference; and ``bids``: load-sorted
:class:`~repro.scheduler.messages.MachineBid`. They return
``{(task, rank): machine_name}`` and may leave instances unassigned (the
caller queues or fails them).
"""

from __future__ import annotations

import random
from typing import Callable, Sequence

from repro.scheduler.messages import MachineBid

Need = tuple[str, int, Sequence[str]]
Assignment = dict[tuple[str, int], str]

#: A placement policy callable.
PlacementPolicy = Callable[[list[Need], list[MachineBid]], Assignment]


def _bid_order(bids: list[MachineBid]) -> list[str]:
    return [b.machine for b in sorted(bids, key=lambda b: (b.load, -b.speed, b.machine))]


def load_sorted_assignment(needs: list[Need], bids: list[MachineBid]) -> Assignment:
    """Least-loaded machines to instances, one instance per machine.

    Equivalent to scanning the load-sorted machine list from the front for
    every instance, but instances sharing a candidates *object* (every rank
    of a task, and — via the execution program's feasibility cache — every
    task with the same hardware signature) resume the scan from a per-set
    cursor instead of rescanning: machines behind the cursor are already
    taken or infeasible for that set, permanently.
    """
    order = _bid_order(bids)
    n = len(order)
    taken: set[str] = set()
    allowed_sets: dict[int, set[str]] = {}
    cursors: dict[int, int] = {}
    out: Assignment = {}
    for task, rank, candidates in needs:
        key = id(candidates)
        allowed = allowed_sets.get(key)
        if allowed is None:
            allowed = allowed_sets[key] = set(candidates)
        i = cursors.get(key, 0)
        while i < n:
            machine = order[i]
            i += 1
            if machine in allowed and machine not in taken:
                out[(task, rank)] = machine
                taken.add(machine)
                break
        cursors[key] = i
    return out


def greedy_assignment(needs: list[Need], bids: list[MachineBid]) -> Assignment:
    """Each instance grabs its most-preferred still-free machine, in the
    order instances appear — no look-ahead, so a flexible early task can
    steal a constrained later task's only machine."""
    free = {b.machine for b in bids}
    out: Assignment = {}
    for task, rank, candidates in needs:
        for machine in candidates:
            if machine in free:
                out[(task, rank)] = machine
                free.remove(machine)
                break
    return out


def utilization_first_assignment(needs: list[Need], bids: list[MachineBid]) -> Assignment:
    """The §4.3 rule: most-constrained instances first.

    Instances are processed in ascending candidate-set size (fewest options
    first); each takes its best free candidate. A flexible instance
    therefore can never occupy the sole feasible machine of a more
    constrained one, maximizing the number of simultaneously running tasks
    (and thus utilization/throughput) at the cost of per-job optimality.
    """
    free = {b.machine for b in bids}
    order = sorted(
        range(len(needs)), key=lambda i: (len(needs[i][2]), needs[i][0], needs[i][1])
    )
    out: Assignment = {}
    for i in order:
        task, rank, candidates = needs[i]
        for machine in candidates:
            if machine in free:
                out[(task, rank)] = machine
                free.remove(machine)
                break
    return out


def random_assignment(
    needs: list[Need], bids: list[MachineBid], rng: random.Random | None = None
) -> Assignment:
    """Uniformly random feasible machine per instance (baseline)."""
    rng = rng or random.Random(0)
    free = {b.machine for b in bids}
    out: Assignment = {}
    for task, rank, candidates in needs:
        options = [m for m in candidates if m in free]
        if options:
            pick = rng.choice(options)
            out[(task, rank)] = pick
            free.remove(pick)
    return out


def site_packed_assignment(needs: list[Need], bids: list[MachineBid]) -> Assignment:
    """Keep each task's instances within one site where possible.

    Communicating instances (the synchronous/loosely-synchronous classes)
    pay WAN latency for every message when scattered across sites; this
    policy groups a task's instances on the single site offering the most
    feasible machines (ties: lowest aggregate load), falling back to
    load-sorted spill-over for the remainder.
    """
    from collections import defaultdict

    by_task: dict[str, list[Need]] = defaultdict(list)
    for need in needs:
        by_task[need[0]].append(need)
    free = {b.machine for b in bids}
    bid_by_machine = {b.machine: b for b in bids}
    out: Assignment = {}
    for task, task_needs in by_task.items():
        # rank sites by (feasible free machines desc, aggregate load asc)
        site_pool: dict[str, list[str]] = defaultdict(list)
        allowed = set(task_needs[0][2])
        # sorted: set order is hash-dependent and would leak into the pool's
        # load-tie ordering, making placement vary across processes
        for machine in sorted(allowed):
            bid = bid_by_machine.get(machine)
            if bid is not None and machine in free:
                site_pool[bid.site].append(machine)
        ordered_sites = sorted(
            site_pool,
            key=lambda s: (
                -len(site_pool[s]),
                sum(bid_by_machine[m].load for m in site_pool[s]),
                s,
            ),
        )
        pool = [
            m
            for site in ordered_sites
            for m in sorted(site_pool[site], key=lambda m: bid_by_machine[m].load)
        ]
        for (task_name, rank, candidates), machine in zip(task_needs, pool):
            out[(task_name, rank)] = machine
            free.discard(machine)
    return out


def round_robin_assignment(needs: list[Need], bids: list[MachineBid]) -> Assignment:
    """Cycle through machines in name order, skipping infeasible ones."""
    machines = sorted(b.machine for b in bids)
    free = set(machines)
    out: Assignment = {}
    cursor = 0
    for task, rank, candidates in needs:
        allowed = set(candidates)
        for step in range(len(machines)):
            machine = machines[(cursor + step) % len(machines)]
            if machine in free and machine in allowed:
                out[(task, rank)] = machine
                free.remove(machine)
                cursor = (cursor + step + 1) % len(machines)
                break
    return out
