"""The :class:`VirtualComputingEnvironment` facade."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.compilation.anticipatory import AnticipatoryEngine
from repro.compilation.manager import CompilationManager
from repro.core.config import VCEConfig
from repro.core.tenancy import TenantRegistry
from repro.faults.schedule import ChaosController, FaultSchedule, build_schedule
from repro.machines.archclass import MachineClass
from repro.machines.database import MachineDatabase
from repro.machines.machine import Machine
from repro.migration.base import MigrationContext
from repro.migration.failover import FailoverConfig, FailoverManager
from repro.migration.selector import MigrationSelector
from repro.netsim.host import Host
from repro.netsim.kernel import Simulator
from repro.netsim.network import Network
from repro.runtime.manager import RuntimeManager
from repro.scheduler.daemon import SchedulerDaemon
from repro.scheduler.directory import GroupDirectory
from repro.scheduler.execution_program import AppRun, ExecutionProgram, RunState
from repro.scheduler.policies import PlacementPolicy, load_sorted_assignment
from repro.sdm.problemspec import ProblemSpecification
from repro.taskgraph import ArcKind, TaskGraph
from repro.telemetry.service import Telemetry
from repro.util.errors import ConfigurationError, ScriptError, VerificationError

if TYPE_CHECKING:
    from repro.loadbalance.balancer import LoadBalancer
    from repro.loadbalance.policies import BalancingPolicy
    from repro.metrics.collector import MetricsCollector
    from repro.script.ast import ApplicationDescription



class VirtualComputingEnvironment:
    """One simulated VCE deployment (see package docstring).

    Args:
        machines: machine descriptions to boot; one scheduler daemon runs
            on each. A separate user workstation, host ``user`` at the
            first machine's site (the execution program's home), is
            always added and never bids.
        config: see :class:`VCEConfig`.
    """

    def __init__(self, machines: list[Machine], config: VCEConfig | None = None):
        if not machines:
            raise ConfigurationError("a VCE needs at least one machine")
        self.config = config or VCEConfig()
        if self.config.verify not in VCEConfig.VERIFY_MODES:
            raise ConfigurationError(
                f"unknown verify mode {self.config.verify!r} "
                f"(expected one of {', '.join(VCEConfig.VERIFY_MODES)})"
            )
        if self.config.backend == "network":
            raise ConfigurationError(
                "backend='network' runs daemons as real processes and is "
                "driven by repro.netexec.NetworkVCE, not the in-process "
                "VirtualComputingEnvironment (see docs/NETWORK.md)"
            )
        if self.config.backend != "serial":
            raise ConfigurationError(
                f"unknown simulation backend {self.config.backend!r} "
                "(expected one of serial, network)"
            )
        self.sim = Simulator(self.config.seed)
        if self.config.telemetry:
            # published before any component is built, so hot paths
            # (runtime manager, channels) can cache metric handles
            from repro.telemetry.registry import MetricsRegistry

            self.sim.telemetry = MetricsRegistry()
        self.hb_tracker = None
        self.protocol_monitor = None
        if self.config.hb_sanitizer:
            # attached before anything is scheduled, so node 0 (setup
            # code) is the ancestor of every event
            from repro.analysis.hb import HBTracker
            from repro.analysis.protocol import ProtocolMonitor

            self.hb_tracker = HBTracker(telemetry=self.sim.telemetry)
            self.sim.hb = self.hb_tracker
            self.protocol_monitor = ProtocolMonitor(
                self.sim, telemetry=self.sim.telemetry
            )
        if self.config.tie_shuffle:
            self.sim.set_tie_shuffle(self.config.tie_shuffle)
        self.network = Network(
            self.sim,
            self.config.latency,
            egress_serialization=self.config.egress_serialization,
            transport=self.config.transport,
        )
        self.database = MachineDatabase()
        self.directory = GroupDirectory()
        self.compilation = CompilationManager(self.database)
        self.runtime = RuntimeManager(
            self.sim, self.network, binary_service=self.compilation
        )
        self.anticipatory = AnticipatoryEngine(
            self.sim, self.network, self.database, self.compilation
        )
        self.migration = MigrationSelector(
            MigrationContext(self.runtime, self.network, self.compilation)
        )
        self.chaos_controller = ChaosController(
            self.sim, self.network, restart_daemon=self.restart_daemon
        )
        self.failover: FailoverManager | None = None
        self.tenants = TenantRegistry(self.config.tenants, self.sim.telemetry)
        self.daemons: dict[str, SchedulerDaemon] = {}
        self.balancer: LoadBalancer | None = None
        self._booted = False
        self._exec_count = 0
        # graphs submitted while verify="off", still checkable by
        # run(verify=...) before their execution programs dispatch
        self._unverified: list[TaskGraph] = []

        first_of_class: dict[MachineClass, Any] = {}
        for machine in machines:
            host = self.network.add_host(machine.name, speed=machine.speed)
            host.machine = machine
            self.database.register(machine)
            contacts = (
                [first_of_class[machine.arch_class]]
                if machine.arch_class in first_of_class
                else None
            )
            daemon = SchedulerDaemon(
                "vced", machine, self.directory, contacts,
                self.config.daemon, self.config.isis,
            )
            host.spawn(daemon)
            first_of_class.setdefault(machine.arch_class, daemon.address)
            self.daemons[machine.name] = daemon

        site = str(machines[0].attributes.get("site", ""))
        self.user_host: Host = self.network.add_host("user")
        self.user_host.machine = Machine(
            "user",
            MachineClass.WORKSTATION,
            attributes={"site": site} if site else {},
        )
        self._wire_wan_routes()

        self.telemetry: Telemetry | None = None
        if self.config.telemetry:
            self.telemetry = Telemetry(
                self.sim,
                self.runtime,
                self.daemons,
                interval=self.config.telemetry_interval,
                series_capacity=self.config.telemetry_series_capacity,
            )
            self.telemetry.install(self.user_host)
        if self.config.failover is not None:
            self.enable_failover(self.config.failover)

    def _wire_wan_routes(self) -> None:
        """Install the WAN latency model between hosts at different sites."""
        wan = self.config.wan_latency
        if wan is None:
            return
        site_of = {
            host.name: str(host.machine.attributes.get("site", ""))
            for host in self.network.hosts.values()
            if host.machine is not None
        }
        names = list(site_of)
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                if site_of[a] != site_of[b]:
                    self.network.set_route(a, b, wan)

    # ------------------------------------------------------------------ boot

    def boot(self) -> "VirtualComputingEnvironment":
        """Let the daemon groups form; returns self for chaining."""
        self.sim.run(until=self.sim.now + self.config.settle_time)
        self._booted = True
        return self

    # --------------------------------------------------------------- running

    def run(self, until: float | None = None, verify: str | None = None, **kw) -> float:
        """Advance the simulation.

        *verify* (``off|warn|strict``) re-checks every graph submitted
        since the last verification before any of them dispatches:
        ``strict`` raises :class:`VerificationError` — refusing to run —
        when a pending graph has error-severity findings; ``warn`` logs
        findings and proceeds. Defaults to :attr:`VCEConfig.verify`.
        """
        if verify is not None and verify not in VCEConfig.VERIFY_MODES:
            raise ConfigurationError(
                f"unknown verify mode {verify!r} "
                f"(expected one of {', '.join(VCEConfig.VERIFY_MODES)})"
            )
        mode = verify if verify is not None else self.config.verify
        if mode != "off" and self._unverified:
            for graph in self._unverified:
                self._enforce_verification(graph, mode)
        result = self.sim.run(until=until, **kw)
        # anything submitted before this call has now had its chance to
        # dispatch; late verification would be pointless
        self._unverified.clear()
        return result

    def verify_graph(self, graph: TaskGraph):
        """Run the static task-graph verifier (structure, annotations, and
        class→machine feasibility against this VCE's machine database).
        Returns an :class:`~repro.analysis.report.AnalysisReport`."""
        from repro.analysis.graphcheck import verify_graph

        return verify_graph(graph, compilation=self.compilation)

    def _enforce_verification(self, graph: TaskGraph, mode: str):
        """Verify *graph*, log findings, and (strict) refuse on errors."""
        report = self.verify_graph(graph)
        for f in report.sorted_findings():
            self.sim.emit(
                "verify.finding",
                graph.name,
                rule=f.rule,
                severity=f.severity.value,
                locus=f.locus,
                message=f.message,
            )
        if mode == "strict" and not report.ok:
            raise VerificationError(
                f"graph {graph.name!r} failed static verification: "
                + "; ".join(f.format() for f in report.errors),
                report=report,
            )
        return report

    def run_to_completion(self, run: AppRun, timeout: float = 10_000.0) -> AppRun:
        """Advance the simulation until *run* finishes (or timeout)."""
        deadline = self.sim.now + timeout
        self.sim.run(
            until=deadline,
            stop_when=lambda: run.state in (RunState.DONE, RunState.FAILED),
        )
        return run

    # ---------------------------------------------------------------- submit

    def default_class_map(self, graph: TaskGraph) -> dict[str, MachineClass | None]:
        """task → machine class: LOCAL for ``local`` tasks, otherwise the
        most-preferred feasible class from the compilation manager."""
        out: dict[str, MachineClass | None] = {}
        for node in graph:
            if node.local:
                out[node.name] = None
                continue
            feasible = self.compilation.feasible_classes(node)
            if not feasible:
                raise ConfigurationError(
                    f"task {node.name!r} has no feasible machine class in this VCE"
                )
            out[node.name] = feasible[0]
        return out

    def submit(
        self,
        graph: TaskGraph,
        class_map: dict[str, MachineClass | None] | None = None,
        policy: PlacementPolicy = load_sorted_assignment,
        ranges: dict[str, tuple[int, int]] | None = None,
        params: dict[str, Any] | None = None,
        priority: float = 0.0,
        queue_if_insufficient: bool = False,
        on_finished: Callable[[AppRun], None] | None = None,
        tenant: str | None = None,
    ) -> AppRun:
        """Launch an execution program for *graph*; returns its AppRun.

        With *tenant* set, the application is charged against that
        tenant's concurrent-instance quota (the planned maximum: range
        highs where *ranges* gives one, the graph's fixed count
        otherwise) and released when the run finishes either way; an
        over-quota submit raises
        :class:`~repro.core.tenancy.QuotaExceededError` before anything
        dispatches.

        With :attr:`VCEConfig.verify` set to ``warn`` or ``strict`` the
        static verifier runs here, before the execution program exists;
        with ``off`` the graph is remembered so ``run(verify=...)`` can
        still check it pre-dispatch.
        """
        if not self._booted:
            raise ConfigurationError("call boot() before submitting applications")
        if tenant is not None:
            charge = 0
            for node in graph:
                planned = (ranges or {}).get(node.name)
                charge += planned[1] if planned is not None else node.instances
            state = self.tenants.state(tenant)
            state.apps_submitted += 1
            self.tenants.admit(tenant, charge)  # raises when over quota
            finish_cb = on_finished

            def _settle_tenant(run: AppRun) -> None:
                if run.state is RunState.DONE:
                    state.apps_completed += 1
                else:
                    state.apps_failed += 1
                self.tenants.release(tenant, charge)
                if finish_cb is not None:
                    finish_cb(run)

            on_finished = _settle_tenant
        if self.config.verify != "off":
            self._enforce_verification(graph, self.config.verify)
        else:
            self._unverified.append(graph)
        if class_map is None:
            class_map = self.default_class_map(graph)
        if self.config.anticipatory:
            self.prepare(graph)
        self._exec_count += 1
        program = ExecutionProgram(
            f"exec{self._exec_count}",
            graph,
            class_map,
            self.runtime,
            self.directory,
            self.database,
            policy=policy,
            ranges=ranges,
            params=params,
            priority=priority,
            queue_if_insufficient=queue_if_insufficient,
            on_finished=on_finished,
        )
        self.user_host.spawn(program)
        return program.run_handle

    def prepare(self, graph: TaskGraph, replicate_to: list[str] | None = None) -> None:
        """Anticipatory pass: compile every task for every feasible class
        and replicate input files (§4.5)."""
        if replicate_to is None:
            replicate_to = [m.name for m in self.database]
        self.anticipatory.prepare_application(graph, replicate_to=replicate_to)

    # ---------------------------------------------------------------- scripts

    def run_script(
        self,
        text: str,
        programs: dict[str, Callable],
        works: dict[str, float] | None = None,
        variables: dict[str, int] | None = None,
        name: str = "app",
        **submit_kw: Any,
    ) -> AppRun:
        """Parse, interpret, and submit a VCE application script.

        Args:
            text: the script (see :mod:`repro.script`).
            programs: task name → program generator factory.
            works: optional task name → work units (for placement hints).
            variables: pre-set script variables.
        """
        description = self.describe_script(text, variables, name)
        graph, class_map, ranges = self.graph_from_description(description, programs, works)
        return self.submit(
            graph,
            class_map=class_map,
            ranges=ranges,
            priority=description.priority,
            **submit_kw,
        )

    def describe_script(
        self,
        text: str,
        variables: dict[str, int] | None = None,
        name: str = "app",
    ) -> ApplicationDescription:
        """Script text → ApplicationDescription, with AVAILABLE() answered
        from the live group directory."""
        from repro.script.interp import Environment, interpret
        from repro.script.parser import parse_script

        available = {
            cls: self.directory.group_size(cls) for cls in self.directory.classes()
        }
        env = Environment(available, variables)
        return interpret(parse_script(text), env, name=name)

    def graph_from_description(
        self,
        description: ApplicationDescription,
        programs: dict[str, Callable],
        works: dict[str, float] | None = None,
    ) -> tuple[TaskGraph, dict[str, MachineClass | None], dict[str, tuple[int, int]]]:
        """Materialize the task graph an application description implies."""
        return materialize_description(description, programs, works)

    # --------------------------------------------------------------- services

    def enable_failover(self, config: FailoverConfig | None = None) -> FailoverManager:
        """Install the crash-recovery layer (idempotent): instance
        failures strand instead of failing the application, and what is
        stranded on a host that a group coordinator reports lost
        (``GroupDirectory.host_lost_hooks``) is re-dispatched at once."""
        if self.failover is None:
            self.failover = FailoverManager(
                self.migration.context, config or FailoverConfig()
            ).install()
            self.directory.host_lost_hooks.append(self.failover.host_lost)
        return self.failover

    def restart_daemon(self, host_name: str) -> SchedulerDaemon:
        """Reboot the scheduler daemon on *host_name* (after a crash or a
        chaos-controller restart action). The new daemon rejoins its class
        group through any live peer, or re-forms the group alone."""
        host = self.network.host(host_name)
        machine = host.machine
        if machine is None:
            raise ConfigurationError(f"host {host_name!r} has no machine description")
        if host.process("vced") is not None and host.process("vced").alive:
            host.kill("vced")
        host.reap("vced")
        contacts = None
        for name, daemon in self.daemons.items():
            if name == host_name or daemon.machine.arch_class is not machine.arch_class:
                continue
            if self.network.host(name).up and daemon.alive:
                contacts = [daemon.address]
                break
        daemon = SchedulerDaemon(
            "vced", machine, self.directory, contacts,
            self.config.daemon, self.config.isis,
        )
        host.spawn(daemon)
        # in place: the telemetry sampler/watchdog hold this same dict
        self.daemons[host_name] = daemon
        self.sim.emit("sched.daemon_restart", host_name)
        return daemon

    def drain_host(self, host_name: str) -> SchedulerDaemon:
        """Operator drain: the daemon on *host_name* stops bidding for new
        work (running instances finish normally) until :meth:`undrain_host`.
        Emits a ``control.drain`` event; idempotent."""
        daemon = self.daemons[host_name]
        if not daemon.draining:
            daemon.draining = True
            self.sim.emit("control.drain", host_name)
        return daemon

    def undrain_host(self, host_name: str) -> SchedulerDaemon:
        """Lift an operator drain set by :meth:`drain_host` (idempotent)."""
        daemon = self.daemons[host_name]
        if daemon.draining:
            daemon.draining = False
            self.sim.emit("control.undrain", host_name)
        return daemon

    def chaos(
        self,
        schedule: FaultSchedule | str,
        seed: int | None = None,
        start: float = 0.0,
    ) -> ChaosController:
        """Arm a fault schedule against this VCE. A string names a recipe
        from :data:`repro.faults.SCHEDULES`, instantiated over the daemon
        machines with *seed* (default: the VCE seed); action times count
        from now, shifted by *start*. Returns the chaos controller (see
        its ``report()``)."""
        if isinstance(schedule, str):
            schedule = build_schedule(
                schedule,
                list(self.daemons),
                seed=self.config.seed if seed is None else seed,
                start=start,
            )
        return self.chaos_controller.apply(schedule)

    def enable_redundancy(self):
        """Honour per-task ``ExecutionHints.redundancy`` (§4.4 redundant
        execution): extra copies launch automatically at dispatch and
        absorb primary failures. Returns the redundancy manager."""
        return self.migration.redundant.install_auto()

    def enable_load_balancing(
        self, policy: BalancingPolicy, busy_threshold: float = 0.5, interval: float = 1.0
    ) -> LoadBalancer:
        """Attach and start a load balancer with *policy*."""
        from repro.loadbalance.balancer import LoadBalancer

        self.balancer = LoadBalancer(
            self.runtime, self.database, policy, busy_threshold, interval
        )
        self.balancer.start()
        return self.balancer

    def metrics(self) -> MetricsCollector:
        from repro.metrics.collector import MetricsCollector

        return MetricsCollector(self.sim.log, self.network)

    def leader_of(self, arch_class: MachineClass) -> SchedulerDaemon:
        return self.daemons[self.directory.leader(arch_class).host]


def materialize_description(
    description: ApplicationDescription,
    programs: dict[str, Callable],
    works: dict[str, float] | None = None,
) -> tuple[TaskGraph, dict[str, MachineClass | None], dict[str, tuple[int, int]]]:
    """Application description → (task graph, class map, instance ranges).

    Needs no live VCE — also used by ``repro lint`` to verify script-built
    graphs against a cluster description without booting a simulation.
    """
    works = works or {}
    missing = [m.task for m in description.modules if m.task not in programs]
    if missing:
        raise ScriptError(f"no programs supplied for modules: {missing}")
    spec = ProblemSpecification(description.name)
    for module in description.modules:
        spec.task(
            module.task,
            f"module {module.path}",
            work=works.get(module.task, 1.0),
            instances=module.min_instances,
            local=module.machine_class is None,
        )
    graph = spec.graph
    for channel in description.channels:
        graph.connect(
            channel.src_task,
            channel.dst_task,
            ArcKind.STREAM,
            channel.volume,
            channel.name,
        )
    class_map: dict[str, MachineClass | None] = {}
    ranges: dict[str, tuple[int, int]] = {}
    for module in description.modules:
        node = graph.task(module.task)
        node.problem_class = module.problem_class or _infer_problem_class(module)
        node.language = "py"
        node.program = programs[module.task]
        class_map[module.task] = module.machine_class
        ranges[module.task] = (module.min_instances, module.max_instances)
    graph.validate()
    return graph, class_map, ranges


def _infer_problem_class(module):
    """Machine-class-worded directives imply a problem class for the
    compilation map's benefit."""
    from repro.taskgraph.node import ProblemClass

    if module.machine_class is MachineClass.SIMD:
        return ProblemClass.SYNCHRONOUS
    if module.machine_class is MachineClass.MIMD:
        return ProblemClass.LOOSELY_SYNCHRONOUS
    return ProblemClass.ASYNCHRONOUS
