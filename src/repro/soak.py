"""The multi-tenant soak generator (``repro soak``).

A soak run stands up one VCE and replays thousands of applications drawn
from simulated user populations (:mod:`repro.workloads.tenants`): each
tenant has a seeded Poisson or bursty arrival process, a hard
concurrent-instance quota, and a base priority.  The
:class:`SoakDriver` — an ordinary netsim process on the user's
workstation, so the whole run stays inside the deterministic event
order — submits each arrival if its tenant has quota headroom and
otherwise parks it in an admission :class:`~repro.scheduler.queue.
AgingQueue`: held applications gain priority as they wait (§4.3), so a
low-priority tenant's backlog drains late but never starves, while the
quota invariant (never more than ``quota`` admitted instances per
tenant) is enforced by the :class:`~repro.core.tenancy.TenantRegistry`
on every admission.

At the scales this targets (100k+ live instances) the flat
one-leader-per-class bidding protocol is the bottleneck, which is why
:class:`SoakConfig.fanout` defaults to hierarchical sub-leader cells
(see :mod:`repro.scheduler.hierarchy` and docs/SCALE.md).  The run is
digest-deterministic: same config, same seed → byte-identical event log.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.cluster import workstation_cluster
from repro.core.config import VCEConfig
from repro.core.environment import VirtualComputingEnvironment
from repro.core.tenancy import TenantSpec
from repro.machines.archclass import MachineClass
from repro.migration.failover import FailoverConfig
from repro.netsim.process import SimProcess
from repro.scheduler.daemon import DaemonConfig
from repro.scheduler.execution_program import RunState
from repro.scheduler.queue import AgingQueue
from repro.trace.replay import event_log_digest
from repro.workloads.tenants import arrival_times, build_population, tenant_app

if TYPE_CHECKING:  # pragma: no cover
    from repro.scheduler.execution_program import AppRun
    from repro.taskgraph import TaskGraph


@dataclass
class SoakConfig:
    """One soak run, fully described (with the seed) for replay.

    Attributes:
        tenants: number of simulated user populations.
        apps: total applications across all tenants.
        machines: workstation count (one scheduler daemon each).
        fanout: sub-leader cells (``1`` = the paper's flat leader).
        seed: root seed for population, arrivals, and the simulation.
        instances: per-application instance range handed to the
            population builder (per-app placement is capped by distinct
            bidding machines, so keep the high end at or below
            *machines*).
        work: per-instance compute seconds range.
        mean_quota: mean per-tenant concurrent-instance quota; ``None``
            sizes it from apps/tenants so ~20% of arrivals must wait.
        arrival_span: compress arrivals so the last lands at this
            simulated second (None keeps the raw process timescale).
        per_instance_load / busy_threshold: daemon load model — the
            defaults let a host carry ~1100 instances before it stops
            bidding, which is what permits six-figure concurrency on a
            modest cluster.
        chaos: optional fault recipe name (see ``repro.faults``); arms
            the chaos controller and enables failover so the soak rides
            through the faults.
        queue_if_insufficient: let leaders age-queue unsatisfiable
            requests instead of failing the run.
        telemetry: keep the live metrics registry + sampler on.
        pulse: driver sampling period for live-instance peaks.
        settle: boot settle time (large groups need more than the
            default 15s).
        max_sim_time: hard stop for the run loop.
    """

    tenants: int = 50
    apps: int = 2000
    machines: int = 256
    fanout: int = 8
    seed: int = 0
    instances: tuple[int, int] = (96, 192)
    work: tuple[float, float] = (8.0, 16.0)
    mean_quota: int | None = None
    arrival_span: float | None = 200.0
    per_instance_load: float = 0.0008
    busy_threshold: float = 0.9
    bid_timeout: float = 1.0
    retry_interval: float = 2.0
    aging_rate: float = 0.05
    chaos: str | None = None
    queue_if_insufficient: bool = True
    telemetry: bool = True
    telemetry_interval: float = 600.0
    pulse: float = 5.0
    settle: float = 40.0
    max_sim_time: float = 100_000.0


@dataclass
class SoakReport:
    """End-state of one soak run (deterministic for a given config)."""

    config_tenants: int
    config_apps: int
    machines: int
    fanout: int
    seed: int
    submitted: int = 0
    admitted: int = 0
    held: int = 0  # admissions that had to wait at the quota
    completed: int = 0
    failed: int = 0
    peak_admitted_instances: int = 0
    peak_live_instances: int = 0
    max_admission_wait: float = 0.0
    makespan: float = 0.0
    events: int = 0
    net_messages: int = 0
    requests_led: int = 0
    delegations: int = 0
    escalations: int = 0
    members_polled: int = 0
    bid_fanout_per_round: float = 0.0
    sched_event_share: float = 0.0
    digest: str = ""
    tenants: dict[str, dict[str, int | float]] = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = dict(self.__dict__)
        out["tenants"] = dict(self.tenants)
        return out


@dataclass
class _Ticket:
    """An arrival held at the quota; duck-types the AgingQueue's request
    protocol (``req_id``/``priority``).  The application is drawn once,
    at arrival, so admission timing cannot perturb the random draws."""

    req_id: str
    priority: float
    tenant: str
    graph: "TaskGraph"
    ranges: dict[str, tuple[int, int]]
    charge: int
    first_enqueued: float


class SoakDriver(SimProcess):
    """Submits tenant arrivals into a VCE; see module docstring."""

    def __init__(
        self,
        vce: VirtualComputingEnvironment,
        config: SoakConfig,
        population: tuple[TenantSpec, ...],
    ) -> None:
        super().__init__("soak")
        self.vce = vce
        self.cfg = config
        self.population = population
        self.pending = AgingQueue(config.aging_rate)
        self.arrivals: list[tuple[float, str, int]] = []
        self.submitted = 0
        self.admitted = 0
        self.held = 0
        self.completed = 0
        self.failed = 0
        self.peak_live = 0
        self.max_admission_wait = 0.0
        self._arrivals_done = False
        self._done_app_ids: set[str] = set()
        self._duplicate_finishes = 0

    # ------------------------------------------------------------- lifecycle

    def on_start(self) -> None:
        cfg = self.cfg
        per_tenant = int(math.ceil(cfg.apps / max(1, len(self.population))))
        merged: list[tuple[float, str, int]] = []
        for tenant in self.population:
            rng = self.sim.rng.stream(f"soak.arrivals.{tenant.name}")
            for i, t in enumerate(arrival_times(tenant, per_tenant, rng)):
                merged.append((t, tenant.name, i))
        merged.sort()
        merged = merged[: cfg.apps]
        if cfg.arrival_span is not None and merged:
            last = merged[-1][0] or 1.0
            scale = cfg.arrival_span / last
            merged = [(t * scale, name, i) for (t, name, i) in merged]
        self.arrivals = merged
        for n, (t, _name, _i) in enumerate(merged):
            self.set_timer(t, f"arr:{n}")
        self.set_timer(cfg.pulse, "pulse", daemon=True)
        self.emit("soak.start", tenants=len(self.population), apps=len(merged))

    def on_timer(self, key: str) -> None:
        if key == "pulse":
            self._sample_live()
            self.set_timer(self.cfg.pulse, "pulse", daemon=True)
            return
        if key == "drain":
            self._drain()
            return
        if key.startswith("arr:"):
            n = int(key[4:])
            _, tenant_name, index = self.arrivals[n]
            self._arrive(tenant_name, index)
            if n == len(self.arrivals) - 1:
                self._arrivals_done = True
            return

    # ------------------------------------------------------------- admission

    def _spec(self, name: str) -> TenantSpec:
        return self.vce.tenants.spec(name)

    def _arrive(self, tenant_name: str, index: int) -> None:
        self.submitted += 1
        tenant = self._spec(tenant_name)
        # one stateful stream per tenant for app shapes: arrivals happen in
        # timer order, which is deterministic, so the draws replay exactly
        rng = self.sim.rng.stream(f"soak.apps.{tenant_name}")
        graph, ranges = tenant_app(tenant, index, rng)
        charge = ranges["work"][1]  # planned max == what submit() charges
        ticket = _Ticket(
            req_id=f"{tenant_name}/{index}",
            priority=tenant.priority,
            tenant=tenant_name,
            graph=graph,
            ranges=ranges,
            charge=charge,
            first_enqueued=self.now,
        )
        if self.vce.tenants.can_admit(tenant_name, charge):
            self._submit(ticket)
            return
        # over quota: park in the aged admission queue; it will be
        # reconsidered every time this (or any) tenant frees capacity
        self.held += 1
        self.vce.tenants.state(tenant_name).denials += 1
        self.pending.push(ticket, self.now)
        self.emit(
            "soak.held", tenant=tenant_name, index=index, backlog=len(self.pending)
        )

    def _submit(self, ticket: _Ticket) -> None:
        self.admitted += 1
        self.vce.submit(
            ticket.graph,
            class_map={"work": MachineClass.WORKSTATION},
            ranges=ticket.ranges,
            priority=ticket.priority,
            queue_if_insufficient=self.cfg.queue_if_insufficient,
            on_finished=self._app_done,
            tenant=ticket.tenant,
        )

    def _app_done(self, run: "AppRun") -> None:
        app_id = run.app.id if run.app is not None else f"run-{id(run)}"
        if app_id in self._done_app_ids:
            self._duplicate_finishes += 1
            return
        self._done_app_ids.add(app_id)
        if run.state is RunState.DONE:
            self.completed += 1
        else:
            self.failed += 1
        self._drain()

    def _drain(self) -> None:
        """Admit held arrivals in aged-priority order.  A head whose own
        tenant is still at quota steps aside (it keeps its age) so it
        cannot head-of-line-block other tenants."""
        deferred: list[_Ticket] = []
        while True:
            item = self.pending.pop(self.now)
            if item is None:
                break
            ticket: _Ticket = item.request  # duck-typed (see _Ticket)
            if self.vce.tenants.can_admit(ticket.tenant, ticket.charge):
                wait = self.now - ticket.first_enqueued
                if wait > self.max_admission_wait:
                    self.max_admission_wait = wait
                self.emit(
                    "soak.admit_held",
                    tenant=ticket.tenant,
                    req=ticket.req_id,
                    waited=round(wait, 6),
                )
                self._submit(ticket)
            else:
                deferred.append(ticket)
        for ticket in deferred:
            # re-queue at the original arrival time: age is preserved
            self.pending.push(ticket, ticket.first_enqueued)
        if self.pending and not self.has_timer("drain"):
            self.set_timer(self.cfg.retry_interval * 2, "drain", daemon=True)

    # ------------------------------------------------------------- sampling

    def _sample_live(self) -> None:
        live = 0
        for app in self.vce.runtime.apps.values():
            if not app.status.terminal:
                live += len(app.inflight)
        if live > self.peak_live:
            self.peak_live = live

    # ------------------------------------------------------------- progress

    @property
    def finished(self) -> bool:
        return (
            self._arrivals_done
            and not self.pending
            and (self.completed + self.failed) >= self.admitted
        )


def run_soak(
    config: SoakConfig | None = None,
) -> tuple[VirtualComputingEnvironment, SoakDriver, SoakReport]:
    """Stand up a VCE, drive one soak run to completion, and report."""
    cfg = config or SoakConfig()
    lo, hi = cfg.instances
    mean_quota = cfg.mean_quota
    if mean_quota is None:
        # size quotas at a typical tenant's full concurrent demand: heavy
        # tenants get headroom, batch tenants (x0.4-0.8 archetype
        # multiplier) must wait at the quota — which is what exercises
        # aged admission without strangling peak concurrency
        per_tenant = cfg.apps / max(1, cfg.tenants)
        mean_quota = max(hi, int(per_tenant * (lo + hi) / 2))
    population = build_population(
        cfg.tenants,
        seed=cfg.seed,
        mean_quota=mean_quota,
        instances=cfg.instances,
        work=cfg.work,
    )
    daemon = DaemonConfig(
        busy_threshold=cfg.busy_threshold,
        per_instance_load=cfg.per_instance_load,
        bid_timeout=cfg.bid_timeout,
        retry_interval=cfg.retry_interval,
        aging_rate=cfg.aging_rate,
        leader_fanout=cfg.fanout,
    )
    vce_config = VCEConfig(
        seed=cfg.seed,
        daemon=daemon,
        tenants=population,
        settle_time=cfg.settle,
        telemetry=cfg.telemetry,
        telemetry_interval=cfg.telemetry_interval,
        failover=FailoverConfig() if cfg.chaos is not None else None,
    )
    vce = VirtualComputingEnvironment(
        workstation_cluster(cfg.machines), vce_config
    ).boot()
    driver = SoakDriver(vce, cfg, population)
    vce.user_host.spawn(driver)
    if cfg.chaos is not None:
        vce.chaos(cfg.chaos, seed=cfg.seed)
    # stop with the last completion; the bound ends a wedged run with a
    # clear state instead of spinning forever
    vce.run(until=cfg.max_sim_time, stop_when=lambda: driver.finished)
    return vce, driver, build_report(vce, driver)


def build_report(
    vce: VirtualComputingEnvironment, driver: SoakDriver
) -> SoakReport:
    cfg = driver.cfg
    counts = vce.sim.log.category_counts()
    total_records = sum(counts.values()) or 1
    sched_records = sum(
        v
        for k, v in counts.items()
        if k.startswith("sched.") or k.startswith("isis.")
    )
    requests_led = sum(d.requests_led for d in vce.daemons.values())
    members_polled = sum(d.members_polled for d in vce.daemons.values())
    escalations = 0
    if vce.sim.telemetry is not None:
        family = vce.sim.telemetry.get("sched_escalations_total")
        if family is not None:
            escalations = int(family.value)
    report = SoakReport(
        config_tenants=cfg.tenants,
        config_apps=cfg.apps,
        machines=cfg.machines,
        fanout=cfg.fanout,
        seed=cfg.seed,
        submitted=driver.submitted,
        admitted=driver.admitted,
        held=driver.held,
        completed=driver.completed,
        failed=driver.failed,
        peak_admitted_instances=vce.tenants.peak_admitted_total,
        peak_live_instances=driver.peak_live,
        max_admission_wait=round(driver.max_admission_wait, 6),
        makespan=round(vce.sim.now, 6),
        events=total_records,
        net_messages=vce.network.messages_sent,
        requests_led=requests_led,
        delegations=sum(d.delegations_sent for d in vce.daemons.values()),
        escalations=escalations,
        members_polled=members_polled,
        bid_fanout_per_round=round(members_polled / max(1, requests_led), 3),
        sched_event_share=round(sched_records / total_records, 6),
        digest=event_log_digest(vce.sim.log),
        tenants=vce.tenants.snapshot(),
    )
    return report
