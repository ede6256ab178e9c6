"""The six perfbench workloads.

Each workload is built from one integer seed and a size scale, drives the
program through its public entry points only, and exposes what the output
checks (``check.py``) and the metric derivation (``metrics.py``) read
afterwards.  One object = one repetition in one fresh process:

    w = WORKLOADS[name](seed, scale)
    w.setup()            # inputs + environment + boot  (counted in setup_s)
    wall = w.run()       # the timed phase: first submit -> last completion
    w.close()            # teardown (net_chain: daemons), before RSS is read
    outcome = w.outcome()  # checked work, operations, simulated-time samples

Why each workload exists, and what its default size costs on the host the
benchmark was defined on, is recorded in ``README.md``.
"""

from __future__ import annotations

import asyncio
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Any

from repro.core import VCEConfig, VirtualComputingEnvironment, workstation_cluster
from repro.faults.schedule import FaultSchedule
from repro.isis.member import IsisConfig
from repro.machines import MachineClass
from repro.migration.failover import FailoverConfig
from repro.netexec.frames import WorkloadSpec
from repro.netexec.supervisor import NetworkVCE
from repro.scheduler.daemon import DaemonConfig
from repro.soak import SoakConfig, SoakDriver, build_report
from repro.trace.replay import event_log_digest
from repro.workloads import build_random_dag, build_stencil_graph
from repro.workloads.tenants import build_population

import check
from metrics import counter_total


def scaled(size: float, scale: float, floor: int = 1) -> int:
    return max(floor, round(size * scale))


@dataclass
class Outcome:
    """What one repetition produced, before it is turned into metrics.

    An *operation* is what ``attempted``/``good`` count (an instance, an
    application or a rank); ``work`` is the amount of useful work the
    throughput metric divides by wall time (instances, applications or
    application messages — see README).  Any entry in ``errors`` fails the
    whole repetition.
    """

    work: float
    work_unit: str
    attempted: int
    good: int
    #: graph-defined task instances committed DONE exactly once
    instances: int
    #: per application: arrival (the benchmark's submit, in simulated
    #: seconds) -> completion
    turnarounds: list[float]
    sim_makespan_s: float
    #: replay digest of the event log (simulator) / of the results (network)
    digest: str
    errors: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.attempted if self.errors else self.attempted - self.good

    @property
    def work_per_sim_s(self) -> float:
        return self.work / self.sim_makespan_s


class Workload:
    """One repetition of one workload (see module docstring)."""

    name = ""
    #: "sim" workloads run on the in-process simulator kernel; "network"
    #: spawns real daemon processes
    backend = "sim"

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.seed = seed
        self.scale = scale
        self.vce: Any = None

    @property
    def sim(self) -> Any:
        return self.vce.sim

    def setup(self) -> None:
        raise NotImplementedError

    def drive(self) -> None:
        raise NotImplementedError

    def run(self) -> float:
        """The timed phase; returns its wall seconds."""
        t0 = time.perf_counter()
        self.drive()
        return time.perf_counter() - t0

    def close(self) -> None:
        pass

    def outcome(self) -> Outcome:
        raise NotImplementedError


class _OneApp(Workload):
    """One application submitted once and run to completion."""

    graph: Any = None
    class_map: dict[str, Any] = {}

    def drive(self) -> None:
        self.submitted_at = self.sim.now
        self.handle = self.vce.submit(self.graph, class_map=self.class_map)
        self.vce.run_to_completion(self.handle, timeout=1_000_000.0)

    def _span(self, errors: list[str]) -> float:
        if self.handle.completed_at is None or self.handle.app is None:
            errors.append(f"application did not finish: {self.handle.error}")
            return self.sim.now - self.submitted_at
        return self.handle.completed_at - self.submitted_at


class _Dag(_OneApp):
    """A layered random DAG, local placement on four workstations."""

    layers = 0
    width = 0
    work_range = (0.0, 0.0)

    def setup(self) -> None:
        lo, hi = self.work_range
        self.graph = build_random_dag(
            layers=scaled(self.layers, self.scale, floor=2),
            width=self.width, seed=self.seed, min_work=lo, max_work=hi,
        )
        self.class_map = {node.name: None for node in self.graph}
        self.vce = VirtualComputingEnvironment(
            workstation_cluster(4), VCEConfig(seed=self.seed)
        ).boot()

    def outcome(self) -> Outcome:
        errors: list[str] = []
        problems: list[str] = []
        span = self._span(errors)
        instances = sum(node.instances for node in self.graph)
        good = 0
        if self.handle.app is not None:
            good = check.instance_results(
                self.handle.app, check.commit_counts(self.sim.log), problems
            )
        return Outcome(
            work=good, work_unit="instances", attempted=instances, good=good,
            instances=good, turnarounds=[span], sim_makespan_s=span,
            digest=event_log_digest(self.sim.log), errors=errors, problems=problems,
        )


class DagSparse(_Dag):
    name = "dag_sparse"
    layers, width, work_range = 24, 50, (2.0, 20.0)


class DagDense(_Dag):
    name = "dag_dense"
    layers, width, work_range = 60, 100, (0.002, 0.02)


class StencilHalo(_OneApp):
    """Eight ranks exchanging halos every iteration, bid-allocated."""

    name = "stencil_halo"
    ranks, cells, iterations = 8, 64, 2500
    class_map = {"grid": MachineClass.WORKSTATION}

    def setup(self) -> None:
        self.n_iter = scaled(self.iterations, self.scale, floor=2)
        self.graph = build_stencil_graph(
            ranks=self.ranks, cells=self.cells, iterations=self.n_iter
        )
        self.vce = VirtualComputingEnvironment(
            workstation_cluster(self.ranks), VCEConfig(seed=self.seed)
        ).boot()

    def outcome(self) -> Outcome:
        errors: list[str] = []
        problems: list[str] = []
        span = self._span(errors)
        # both halo rows of every interior boundary each iteration, then
        # one strip per non-root rank for the final gather
        expected = 2 * (self.ranks - 1) * self.n_iter + (self.ranks - 1)
        sends = int(counter_total(self.sim.telemetry, "vmpi_sends_total"))
        if sends != expected:
            errors.append(f"{sends} application messages sent, expected {expected}")
        good = 0
        if self.handle.app is not None:
            good = check.stencil_ranks(
                self.handle.app, self.cells, self.n_iter,
                check.commit_counts(self.sim.log), problems,
            )
        # a message counts as delivered once the rank that waited for it
        # finished with the right numbers
        work = sends if good == self.ranks else 0
        return Outcome(
            work=work, work_unit="app_msgs", attempted=self.ranks, good=good,
            instances=good, turnarounds=[span], sim_makespan_s=span,
            digest=event_log_digest(self.sim.log), errors=errors, problems=problems,
        )


class _Soak(Workload):
    """Multi-tenant open-loop soak: seeded arrivals in simulated time.

    Built like ``repro.soak.run_soak`` but driven in 5-simulated-second
    slices: ``run_soak`` steps 500 s at a time, which pads a run that is
    over at t=130 with six minutes of idle heartbeats.
    """

    tenants = 8
    apps = 0
    machines = 0
    instances = (0, 0)
    work = (0.0, 0.0)
    #: simulated seconds of arrivals per application (keeps the offered
    #: rate fixed when --scale changes the application count)
    span_per_app = 0.0
    slice_s = 5.0

    def setup(self) -> None:
        n_apps = scaled(self.apps, self.scale, floor=self.tenants)
        cfg = SoakConfig(
            tenants=self.tenants, apps=n_apps, machines=self.machines, fanout=4,
            seed=self.seed, instances=self.instances, work=self.work,
            arrival_span=n_apps * self.span_per_app,
        )
        lo, hi = cfg.instances
        # the same quota sizing rule as run_soak
        mean_quota = max(hi, int(cfg.apps / cfg.tenants * (lo + hi) / 2))
        population = build_population(
            cfg.tenants, seed=cfg.seed, mean_quota=mean_quota,
            instances=cfg.instances, work=cfg.work,
        )
        daemon = DaemonConfig(
            busy_threshold=cfg.busy_threshold,
            per_instance_load=cfg.per_instance_load,
            bid_timeout=cfg.bid_timeout,
            retry_interval=cfg.retry_interval,
            aging_rate=cfg.aging_rate,
            leader_fanout=cfg.fanout,
        )
        self.vce = VirtualComputingEnvironment(
            workstation_cluster(cfg.machines),
            VCEConfig(
                seed=cfg.seed, daemon=daemon, tenants=population,
                settle_time=cfg.settle, telemetry_interval=cfg.telemetry_interval,
                **self.fault_tolerance(),
            ),
        ).boot()
        self.cfg = cfg
        self.driver = SoakDriver(self.vce, cfg, population)

    def fault_tolerance(self) -> dict[str, Any]:
        """VCEConfig fields of a run that injects faults."""
        return {}

    def inject(self, t: float) -> None:
        """Arm the faults of the slice that starts *t* simulated seconds
        into the timed phase."""

    def drive(self) -> None:
        self.started_at = self.sim.now
        self.vce.user_host.spawn(self.driver)
        sim = self.sim
        slices = 0
        while not self.driver.finished and sim.now < self.cfg.max_sim_time:
            self.inject(slices * self.slice_s)
            slices += 1
            self.vce.run(until=self.started_at + slices * self.slice_s)

    def outcome(self) -> Outcome:
        errors: list[str] = []
        problems: list[str] = []
        self.report = report = build_report(self.vce, self.driver)
        check.soak_report(report, self.vce.tenants, errors)
        arrivals = {
            f"{tenant}-a{index}": self.started_at + t
            for t, tenant, index in self.driver.arrivals
        }
        commits = check.commit_counts(self.sim.log)
        good_apps = 0
        instances = 0
        turnarounds: list[float] = []
        last_done = self.started_at
        for app in self.vce.runtime.apps.values():
            good = check.instance_results(app, commits, problems)
            instances += good
            if good == len(app.records) and app.completed_at is not None:
                good_apps += 1
                turnarounds.append(app.completed_at - arrivals[app.graph.name])
                last_done = max(last_done, app.completed_at)
        first_arrival = min(arrivals.values(), default=self.started_at)
        return Outcome(
            work=good_apps, work_unit="apps", attempted=self.cfg.apps,
            good=good_apps, instances=instances, turnarounds=turnarounds,
            sim_makespan_s=last_done - first_arrival, digest=report.digest,
            errors=errors, problems=problems,
        )


class SoakBid(_Soak):
    name = "soak_bid"
    apps, machines = 400, 32
    instances, work, span_per_app = (2, 6), (0.5, 2.0), 0.1


class SoakChaos(_Soak):
    """The soak under 5% message drop, a daemon bounce every 10 simulated
    seconds and two 5 s partitions of a third of the hosts.

    The faults are drawn from the seed slice by slice, not up front, because
    one rule needs to know who leads the group *now*: any daemon may be
    bounced, the leader too, but a partition never cuts the current leader
    off and the leader is not bounced from 15 s before a partition until it
    has healed.  On the code this benchmark was defined on, a leader crash
    that runs into a partition loses the requests queued at the leader
    ("group WORKSTATION never replied", 26 of 140 applications on one
    sub-seed in a hundred), and a benchmark workload must be one on which no
    operation fails.  Leader failover without a partition on top is
    exercised about once per repetition.
    """

    name = "soak_chaos"
    apps, machines = 140, 24
    instances, work, span_per_app = (4, 8), (4.0, 10.0), 0.5
    bounce_every, down_for = 10.0, 4.0
    cut_shares, cut_for = (0.3, 0.7), 5.0
    #: the leader is left alone from this long before a partition until a
    #: second after it has healed
    leader_calm_s = 15.0

    def fault_tolerance(self) -> dict[str, Any]:
        return {
            "reliable_transport": True,
            # the default budget is 5 re-dispatches: at this overload an
            # instance lives long enough to lose six hosts in a row on one
            # repetition in a hundred, and the application fails by design
            "failover": FailoverConfig(max_redispatches=20),
            # the quorum rule: without it a host cut off alone elects
            # itself, announces itself as the group's leader when the
            # partition heals, and fails the requests it is sent meanwhile
            "isis": IsisConfig(require_majority=True),
        }

    def setup(self) -> None:
        super().setup()
        self.rng = random.Random(self.seed)
        self.hosts = sorted(self.vce.daemons)
        self.cuts = [self.cfg.arrival_span * share for share in self.cut_shares]

    def inject(self, t: float) -> None:
        rng = self.rng
        schedule = FaultSchedule("perfbench-chaos")
        if t == 0.0:
            schedule.drop_window(0.0, 1_000_000.0, 0.05)
        leader = self.vce.leader_of(MachineClass.WORKSTATION).machine.name
        # arrivals stop at the span; the backlog drains for a few spans more
        if t % self.bounce_every >= self.slice_s and t < 6 * self.cfg.arrival_span:
            victim = rng.choice(self.hosts)
            if victim == leader and any(
                -self.cut_for - 1.0 <= cut - t < self.leader_calm_s for cut in self.cuts
            ):
                victim = rng.choice([h for h in self.hosts if h != leader])
            schedule.bounce(rng.random() * 2.0, victim, down_for=self.down_for)
        for cut in self.cuts:
            if t <= cut < t + self.slice_s:
                others = [h for h in self.hosts if h != leader]
                rng.shuffle(others)
                schedule.partition_window(
                    cut - t, self.cut_for, others[: len(self.hosts) // 3]
                )
        if len(schedule):
            self.vce.chaos(schedule)


class _ChainOutcome(Outcome):
    """On the network backend simulated time is wall time x rate, so work per
    simulated second of makespan would be ``work_per_s`` over again.  Here
    it is the work of one application per simulated second of the *median*
    round trip: it holds the typical application's latency, where
    ``work_per_s`` holds the mean and with it every stall."""

    @property
    def work_per_sim_s(self) -> float:
        per_app = self.work / len(self.turnarounds)
        return per_app / statistics.median(self.turnarounds)


class NetChain(Workload):
    """Closed loop, one client: sequential two-task chains through two real
    daemon processes over TCP on 127.0.0.1 (port 0 = kernel-assigned)."""

    name = "net_chain"
    backend = "network"
    apps, warmup_share, rate = 120, 0.1, 2000.0
    app_timeout = 30.0

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        super().__init__(seed, scale)
        self.loop = asyncio.new_event_loop()
        self.n_apps = scaled(self.apps, scale, floor=4)
        self.n_warmup = scaled(self.n_apps, self.warmup_share)
        self.specs = [
            WorkloadSpec(
                kind="randomdag",
                kwargs=(
                    ("layers", 2), ("width", 1), ("seed", seed * 100_003 + i),
                    ("min_work", 1.0), ("max_work", 4.0),
                ),
            )
            for i in range(self.n_warmup + self.n_apps)
        ]
        #: (spec, NetworkApp) of every timed application
        self.finished: list[tuple[WorkloadSpec, Any]] = []
        self.rtts_s: list[float] = []
        #: called with the application ordinal before each submit (the
        #: tracer tags spans with it)
        self.on_app = lambda ordinal: None

    def setup(self) -> None:
        self.vce = NetworkVCE(
            workstation_cluster(2), VCEConfig(seed=self.seed, backend="network"),
            rate=self.rate, port=0,
        )
        t0 = time.perf_counter()
        self.loop.run_until_complete(self.vce.aboot())
        #: daemons spawned -> every daemon has said Hello
        self.boot_s = time.perf_counter() - t0

    async def _one(self, ordinal: int, spec: WorkloadSpec) -> float:
        self.on_app(ordinal)
        t0 = time.perf_counter()
        app = await self.vce.asubmit(spec)
        await self.vce.adrive(app, self.app_timeout)
        rtt = time.perf_counter() - t0
        self.finished.append((spec, app))
        return rtt

    async def _drive(self) -> float:
        for i, spec in enumerate(self.specs[: self.n_warmup]):
            await self._one(i, spec)
        self.finished.clear()
        self.timed_from = self.sim.now
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        for i, spec in enumerate(self.specs[self.n_warmup :], self.n_warmup):
            self.rtts_s.append(await self._one(i, spec))
        wall = time.perf_counter() - t0
        self.timed_until = self.sim.now
        self.supervisor_cpu_s = time.process_time() - cpu0
        return wall

    def run(self) -> float:
        return self.loop.run_until_complete(self._drive())

    def close(self) -> None:
        if self.vce is not None:
            self.loop.run_until_complete(self.vce.ashutdown())
        self.loop.close()

    def outcome(self) -> Outcome:
        errors: list[str] = []
        problems: list[str] = []
        good = check.network_results(self.finished, self.seed, problems)
        check.network_protocol(self.vce, errors)
        if len(self.finished) != self.n_apps:
            errors.append(f"{len(self.finished)} of {self.n_apps} applications ran")
        return _ChainOutcome(
            work=good, work_unit="instances", attempted=2 * self.n_apps, good=good,
            instances=good,
            # the network backend's clock is wall seconds x rate, which
            # makes these comparable in kind with simulated seconds
            turnarounds=[rtt * self.rate for rtt in self.rtts_s],
            sim_makespan_s=self.timed_until - self.timed_from,
            digest=check.network_digest(self.finished),
            errors=errors, problems=problems,
        )


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w
    for w in (DagSparse, DagDense, StencilHalo, SoakBid, SoakChaos, NetChain)
}
