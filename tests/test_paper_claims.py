"""The paper's claims: one test per experiment of DESIGN.md's index.

Each test regenerates one experiment — Figures 1–3 (F1–F3), the textual
claims of §4.1–§5 (E1–E13) and the design-knob ablations (A1) — asserts the
*shape* the paper predicts (who wins, by what factor, where the crossover
falls), and prints its table. Every scenario is a seeded simulation, so
the tests are deterministic; F1's wall-clock rows are printed, never
asserted. EXPERIMENTS.md's tables come from::

    PYTHONPATH=src python -m pytest tests/test_paper_claims.py -s
"""

from __future__ import annotations

import statistics
import time

from repro.channels import (
    ChannelDelivery,
    ChannelManager,
    DataConversionInterposer,
    Port,
    PortDirection,
)
from repro.compilation import CompilationManager
from repro.core import (
    VCEConfig,
    VirtualComputingEnvironment,
    heterogeneous_cluster,
    multi_site_cluster,
)
from repro.faults import leadership_transfer_times
from repro.isis import IsisConfig
from repro.loadbalance import MigrateOnLoadPolicy, NoActionPolicy, SuspendResumePolicy
from repro.machines import ConstantLoad, Machine, MachineClass, TraceLoad
from repro.metrics import format_series, format_table
from repro.migration import (
    CheckpointMigration,
    DumpMigration,
    MigrationContext,
    RecompileMigration,
    RedundantExecutionManager,
)
from repro.netsim import Address, LatencyModel, Network, SimProcess, Simulator
from repro.objects import ClientStub, parse_idl, serve
from repro.runtime import AppStatus, Placement
from repro.scheduler import (
    DaemonConfig,
    greedy_assignment,
    load_sorted_assignment,
    random_assignment,
    round_robin_assignment,
    site_packed_assignment,
    utilization_first_assignment,
)
from repro.scheduler.execution_program import RunState
from repro.sdm import (
    CodingLevel,
    DesignStage,
    ProblemSpecification,
    SoftwareDevelopmentModule,
    SourceModule,
)
from repro.taskgraph import ProblemClass
from repro.vmpi import (
    Checkpoint,
    Compute,
    Emit,
    ReadFile,
    Recv,
    Send,
    allreduce,
    alltoall,
    barrier,
    bcast,
)
from repro.workloads import (
    WEATHER_SCRIPT,
    build_diamond_graph,
    build_monte_carlo_graph,
    build_stencil_graph,
    build_sweep_graph,
    build_weather_graph,
    weather_programs,
)

from tests.conftest import make_cluster, place_all_on
from tests.helpers_sched import workstation_farm as workstations
from tests.test_cost_ledger import measured


def fresh_vce(machines, seed=0, config=None):
    return VirtualComputingEnvironment(machines, config or VCEConfig(seed=seed)).boot()


def finish(vce, run, timeout=5_000.0):
    vce.run_to_completion(run, timeout=timeout)
    assert run.state is RunState.DONE, f"run failed: {run.error}"


def _program_graph(name, program, **task):
    """A one-task (``job``) asynchronous graph running *program* in Python."""
    graph = ProblemSpecification(name).task("job", **task).build()
    node = graph.task("job")
    node.problem_class = ProblemClass.ASYNCHRONOUS
    node.language = "py"
    node.program = program
    return graph


# ---------------------------------------------------------------- F1


def test_f1_layer_stack():
    """F1 — the Figure-1 layer stack, stage by stage.

    Walks the weather application through every layer of the figure —
    problem specification → design stage → coding level → compilation
    manager → runtime manager — and reports the cost attributable to each,
    in one table. Shape: compilation dominates preparation; the runtime
    manager's allocation adds milliseconds; execution dominates overall.
    """
    vce = fresh_vce(heterogeneous_cluster(n_workstations=6), seed=3)
    programs = weather_programs(predict_work=100.0)
    timings = {}

    # --- SDM: problem specification layer ------------------------------------
    t0 = time.perf_counter()
    sdm = SoftwareDevelopmentModule()
    spec = (
        sdm.specification("weather")
        .task("collector", work=20, instances=2)
        .task("usercollect", work=10)
        # the user's hint that the model is lockstep data parallelism —
        # the design stage classifies it SYNCHRONOUS, routing it to SIMD
        .task("predictor", work=100, memory_mb=64, requirements={"lockstep": True})
        .task("display", work=2, local=True)
        .flow("collector", "predictor", volume=4_000_000)
        .flow("usercollect", "predictor", volume=500_000)
        .flow("predictor", "display", volume=1_000_000)
    )
    graph = spec.build()
    timings["1 problem spec (wall ms)"] = (time.perf_counter() - t0) * 1e3

    # --- SDM: design stage ----------------------------------------------------
    t0 = time.perf_counter()
    DesignStage().run(graph)
    timings["2 design stage (wall ms)"] = (time.perf_counter() - t0) * 1e3

    # --- SDM: coding level ----------------------------------------------------
    t0 = time.perf_counter()
    coding = CodingLevel()
    for task in ("collector", "usercollect", "predictor", "display"):
        coding.implement(task, SourceModule("hpf", programs[task], source_size=2000))
    coding.run(graph)
    timings["3 coding level (wall ms)"] = (time.perf_counter() - t0) * 1e3

    # --- EXM: compilation manager (simulated seconds) -------------------------
    plan = vce.compilation.plan(graph)
    timings["4 compilation (sim s)"] = vce.compilation.compile_all(plan, vce.sim.now)
    timings["4b binaries prepared"] = len(vce.compilation.cache)

    # --- EXM: runtime manager (simulated seconds) -----------------------------
    run = vce.submit(graph)
    finish(vce, run)
    timings["5 allocation (sim s)"] = run.allocation_latency
    timings["6 execution (sim s)"] = run.completed_at - run.allocated_at
    timings["makespan (sim s)"] = run.app.makespan

    print()
    print(
        format_table(
            ["layer / stage", "cost"],
            [[k, v] for k, v in timings.items()],
            title="F1: SDM/EXM layer costs for the weather application",
        )
    )
    # shapes: SDM layers are cheap local transformations; compilation is the
    # dominant preparation cost; allocation is tiny vs execution.
    assert timings["4 compilation (sim s)"] > 10.0
    assert timings["5 allocation (sim s)"] < 1.0
    assert timings["6 execution (sim s)"] > timings["5 allocation (sim s)"] * 5
    assert timings["4b binaries prepared"] >= 4
    # the lockstep hint routed the predictor to the 40x SIMD machine, so the
    # 100-unit model is not the makespan bottleneck
    assert timings["makespan (sim s)"] < 60.0


# ---------------------------------------------------------------- F2

F2_CALLS = 50

F2_IDL = "interface Echo { ping(payload: string) -> string; }"


def _two_task_graph(client_program, server_program, name):
    spec = ProblemSpecification(name).task("client").task("server")
    spec.stream("client", "server", channel="wire")
    graph = spec.build()
    for task, program in (("client", client_program), ("server", server_program)):
        node = graph.task(task)
        node.problem_class = ProblemClass.ASYNCHRONOUS
        node.language = "py"
        node.program = program
    return graph


def _run_two_tasks(graph, interposer_bytes=None, seed=4):
    vce = fresh_vce(workstations(3), seed=seed)
    channel = vce.runtime.channels.get_or_create("wire")
    if interposer_bytes is not None:
        conv = DataConversionInterposer("conv", seconds_per_byte=interposer_bytes)
        vce.network.host("ws2").spawn(conv)
        vce.run(until=vce.sim.now + 0.1)
        channel.split(conv)
    placement = Placement()
    placement.assign("client", 0, "ws0")
    placement.assign("server", 0, "ws1")
    app = vce.runtime.submit(graph, placement)
    t0 = vce.sim.now
    vce.run(until=vce.sim.now + 600.0, stop_when=lambda: app.status.terminal)
    assert app.all_done, "app did not complete"
    return (app.completed_at - t0) / F2_CALLS


def _raw_roundtrip_time():
    def client(ctx):
        for i in range(F2_CALLS):
            yield Send(dst="server[0]", data=f"m{i}", channel="wire", tag="q")
            yield Recv(channel="wire", tag="a")

    def server(ctx):
        for _ in range(F2_CALLS):
            src, _ = yield Recv(channel="wire", tag="q")
            yield Send(dst=src, data="ok", channel="wire", tag="a")

    return _run_two_tasks(_two_task_graph(client, server, "raw"))


def _proxy_roundtrip_time(interposer_bytes=None):
    iface = parse_idl(F2_IDL)["Echo"]

    def client(ctx):
        stub = ClientStub(iface, "wire", "server[0]")
        for i in range(F2_CALLS):
            yield from stub.invoke(ctx, "ping", f"m{i}")
        yield from stub.shutdown(ctx)

    class Servant:
        def ping(self, payload):
            return payload

    def server(ctx):
        yield from serve(ctx, Servant(), iface, "wire")

    return _run_two_tasks(
        _two_task_graph(client, server, "proxy"), interposer_bytes=interposer_bytes
    )


def test_f2_proxy_overhead():
    """F2 — communication via proxies (Figure 2).

    Compares, between two workstations: raw channel messaging (one Send +
    one Recv each way); proxy method invocation (client stub → server
    dispatch → typed reply); proxy invocation across a data-conversion
    interposer (the heterogeneous case the figure motivates). Shape:
    proxies add a small constant over raw messaging (marshalling +
    dispatch); the conversion interposer adds per-byte cost and one extra
    network hop.
    """
    times = {
        "raw channel": _raw_roundtrip_time(),
        "proxy RPC": _proxy_roundtrip_time(),
        "proxy + conversion interposer": _proxy_roundtrip_time(interposer_bytes=1e-6),
    }
    print()
    print(
        format_table(
            ["path", "per-call latency (sim s)"],
            [[k, v] for k, v in times.items()],
            title="F2: method invocation cost via proxies",
        )
    )
    raw = times["raw channel"]
    proxy = times["proxy RPC"]
    interposed = times["proxy + conversion interposer"]
    # proxy invocation costs within a small constant of raw messaging
    # (marshalling is cheap relative to wire latency); splitting the channel
    # with a conversion interposer adds an extra hop and per-byte work
    assert abs(proxy - raw) / raw < 0.25
    assert interposed > proxy
    assert interposed < 4 * raw


# ---------------------------------------------------------------- F3

F3_GROUP_SIZES = [2, 4, 8, 16, 32, 64]


def _allocate_on_group(n: int):
    vce = fresh_vce(workstations(n), seed=1)
    messages_before = vce.network.messages_sent
    graph = build_sweep_graph(points=1, work_per_point=0.5, name=f"probe{n}")
    run = vce.submit(graph)
    vce.run(
        until=vce.sim.now + 60.0,
        stop_when=lambda: run.allocated_at is not None,
    )
    assert run.allocated_at is not None, "allocation never completed"
    finish(vce, run)
    return {
        "group": n,
        "alloc_latency": run.allocation_latency,
        "messages": vce.network.messages_sent - messages_before,
        "bids": vce.metrics().bid_counts()[0],
    }


def test_f3_bidding_scaling():
    """F3 — the runtime bidding mechanism (Figure 3).

    Regenerates the figure's protocol as data: allocation latency and
    protocol message count as the workstation group grows. The protocol is
    constant-round (request → state-disclosure broadcast → bids → reply),
    so latency should stay near-flat while messages grow linearly with
    group size.
    """
    rows = [_allocate_on_group(n) for n in F3_GROUP_SIZES]
    print()
    print(
        format_table(
            ["group size", "alloc latency (s)", "protocol msgs", "bids received"],
            [[r["group"], r["alloc_latency"], r["messages"], r["bids"]] for r in rows],
            title="F3: bidding allocation vs workstation-group size",
        )
    )
    print(format_series("alloc_latency", [r["group"] for r in rows],
                        [r["alloc_latency"] for r in rows]))

    # shape: every idle daemon bids; latency stays bounded (constant-round
    # protocol) while message count grows with the group
    for row in rows:
        assert row["bids"] == row["group"]
    latencies = [r["alloc_latency"] for r in rows]
    assert max(latencies) < 10 * latencies[0] + 1.0
    messages = [r["messages"] for r in rows]
    assert messages[-1] > messages[0] * 4  # roughly linear fan-out


def test_f3_multigroup_request():
    """F3 — one application touching all three groups of the paper's
    typical heterogeneous environment: three leaders field requests in
    parallel."""
    vce = fresh_vce(heterogeneous_cluster(n_workstations=6), seed=2)
    run = vce.submit(build_weather_graph(predict_work=50.0))
    finish(vce, run)
    groups = len({r.get("cls") for r in vce.sim.log.records(category="exec.request")})
    print()
    print(
        format_table(
            ["groups contacted", "alloc latency (s)"],
            [[groups, run.allocation_latency]],
            title="F3: multi-group allocation (workstation + SIMD)",
        )
    )
    assert groups == 2  # collector/usercollect -> WS, predictor -> SIMD
    assert run.allocation_latency < 5.0


# ---------------------------------------------------------------- E1


def test_e1_weather_script():
    """E1 — the §5 weather application, script to termination.

    Runs the paper's exact script through the full stack: parse →
    interpret → bid per group → place → dispatch → execute → terminate.
    Reports the timeline of the phases and verifies the §5 narrative: two
    collectors on the (asynchronous-class) workstation group, the predictor
    on the SIMD group, the display LOCAL on the user's workstation after
    the remote executions have begun.
    """
    vce = fresh_vce(heterogeneous_cluster(n_workstations=6), seed=5)
    run = vce.run_script(
        WEATHER_SCRIPT,
        weather_programs(predict_work=200.0),
        works={"collector": 20, "usercollect": 10, "predictor": 200, "display": 2},
        name="snow",
    )
    finish(vce, run)
    vce.run(until=vce.sim.now + 5.0)  # drain terminate notices
    log = vce.sim.log
    first_remote_start = min(
        r.time for r in log.records(category="task.start") if r.get("task") != "display"
    )
    display_start = next(
        r.time for r in log.records(category="task.start") if r.get("task") == "display"
    )
    placement = dict(run.placement.assignments)
    requests = log.count("sched.request")
    terminates = log.count("app.terminate") + log.count("sched.released")

    rows = [[f"{t}[{r}]", m] for (t, r), m in sorted(placement.items())]
    print()
    print(format_table(["module", "machine"], rows, title="E1: weather placement"))
    print(
        format_table(
            ["metric", "value"],
            [
                ["allocation latency (s)", run.allocation_latency],
                ["makespan (s)", run.app.makespan],
                ["group requests", requests],
            ],
        )
    )

    # §5 narrative shape
    assert placement[("collector", 0)].startswith("ws")
    assert placement[("collector", 1)].startswith("ws")
    assert placement[("collector", 0)] != placement[("collector", 1)]
    assert placement[("predictor", 0)].startswith("simd")
    assert placement[("display", 0)] == "user"
    assert display_start >= first_remote_start
    assert requests >= 2  # workstation group + SIMD group
    assert terminates >= 1


# ---------------------------------------------------------------- E2

#: 8 machines, lightly and heavily loaded interleaved (so that name-order
#: round-robin can't accidentally match load-aware placement)
E2_LOADS = [0.6, 0.0, 0.7, 0.1, 0.0, 0.65, 0.05, 0.75]


def _e2_run_policy(policy, seed=6):
    vce = fresh_vce(workstations(8, loads=[ConstantLoad(x) for x in E2_LOADS]), seed=seed)
    graph = build_sweep_graph(points=4, work_per_point=30.0, name=f"batch-{policy.__name__}")
    run = vce.submit(graph, policy=policy)
    finish(vce, run)
    hosts = {run.placement.host_for("point", r) for r in range(4)}
    light = {f"ws{i}" for i, x in enumerate(E2_LOADS) if x < 0.3}
    return {
        "makespan": run.app.makespan,
        "on_light_machines": len(hosts & light),
    }


def test_e2_placement_policies():
    """E2 — placement quality: load-sorted bids vs baselines.

    The paper's leader "sort[s] bids by load" and returns "the least
    loaded processors". On a cluster whose machines differ in background
    load, the load-sorted policy should beat random and round-robin
    placement on makespan for a batch of independent tasks.
    """
    results = {
        "load-sorted (paper)": _e2_run_policy(load_sorted_assignment),
        "round-robin": _e2_run_policy(round_robin_assignment),
        "random": _e2_run_policy(random_assignment),
    }
    print()
    print(
        format_table(
            ["policy", "makespan (s)", "tasks on lightly-loaded machines (of 4)"],
            [[k, v["makespan"], v["on_light_machines"]] for k, v in results.items()],
            title="E2: placement quality on a half-loaded cluster",
        )
    )
    paper = results["load-sorted (paper)"]
    # the paper's policy lands everything on the light half and wins makespan
    assert paper["on_light_machines"] == 4
    assert paper["makespan"] <= results["round-robin"]["makespan"]
    assert paper["makespan"] <= results["random"]["makespan"]
    # and the difference is material (≥20% vs the worst baseline)
    worst = max(results["round-robin"]["makespan"], results["random"]["makespan"])
    assert paper["makespan"] < 0.9 * worst


# ---------------------------------------------------------------- E3


def _e3_graph(name):
    # the flexible task is declared (and therefore considered) first —
    # greedy placement is order-sensitive, which is exactly its §4.3 flaw
    spec = (
        ProblemSpecification(name)
        .task("flexible", work=40.0)
        .task("constrained", work=40.0, requirements={"special_fpu": True})
    )
    graph = spec.build()
    for node in graph:
        node.problem_class = ProblemClass.ASYNCHRONOUS
        node.language = "py"
        work = node.work

        def program(ctx, w=work):
            yield Compute(w)

        node.program = program
    return graph


def _e3_run(policy, seed=7):
    # machine A: fast and uniquely capable
    machines = [
        Machine("A", MachineClass.WORKSTATION, speed=4.0, memory_mb=512,
                attributes={"special_fpu": True}),
        Machine("B", MachineClass.WORKSTATION, speed=1.0, memory_mb=512),
    ]
    vce = fresh_vce(machines, seed=seed)
    run = vce.submit(_e3_graph(policy.__name__), policy=policy)
    vce.run_to_completion(run, timeout=500.0)
    return run


def test_e3_machine_a_example():
    """E3 — the §4.3 machine-A example: utilization-first placement.

    "The first task can only run on a particular Unix workstation (call it
    machine A) because of that machine's architecture. The second task can
    run on any Unix workstation, but will run fastest on machine A. In this
    situation the execution layer should run the first task on machine A.
    Even if there are no other idle Unix workstations available the second
    job should be made to wait."

    Setup: machine A is the only one with the special attribute the
    constrained task requires, and it is also the fastest machine (so a
    greedy flexible task covets it). Utilization-first must serve the
    constrained task from A and push the flexible task elsewhere — both run
    concurrently and total throughput wins. Greedy gives A to the flexible
    task, stranding the constrained one.
    """
    results = {
        "utilization-first": _e3_run(utilization_first_assignment),
        "greedy": _e3_run(greedy_assignment),
    }
    rows = []
    for name, run in results.items():
        placement = dict(run.placement.assignments) if run.placement else {}
        rows.append(
            [
                name,
                run.state.value,
                placement.get(("constrained", 0), "-"),
                placement.get(("flexible", 0), "-"),
                run.app.makespan if run.app and run.app.makespan else "-",
            ]
        )
    print()
    print(
        format_table(
            ["policy", "outcome", "constrained on", "flexible on", "makespan (s)"],
            rows,
            title="E3: the machine-A scenario (§4.3)",
        )
    )

    run_u, run_g = results["utilization-first"], results["greedy"]
    # utilization-first: both run, constrained on A, flexible pushed to B
    assert run_u.state is RunState.DONE
    assert run_u.placement.host_for("constrained", 0) == "A"
    assert run_u.placement.host_for("flexible", 0) == "B"
    # greedy: the flexible task grabbed fast machine A; the constrained task
    # has nowhere to run and the allocation fails
    assert run_g.state is RunState.FAILED
    assert "unplaced" in (run_g.error or "")


# ---------------------------------------------------------------- E4


def _e4_run(aging_rate: float, seed=8):
    config = VCEConfig(
        seed=seed,
        daemon=DaemonConfig(
            per_instance_load=0.9,  # one job saturates the machine
            retry_interval=1.0,
            aging_rate=aging_rate,
        ),
    )
    vce = fresh_vce(workstations(1), config=config)

    runs = {}
    # a blocker saturates the single machine first...
    vce.submit(
        build_sweep_graph(points=1, work_per_point=8.0, name="blocker"),
        priority=10.0,
    )
    vce.run(until=vce.sim.now + 0.5)
    # ...so the low-priority victim queues, followed by high-priority work
    runs["victim"] = vce.submit(
        build_sweep_graph(points=1, work_per_point=4.0, name="victim"),
        priority=0.0,
        queue_if_insufficient=True,
    )
    # high-priority jobs keep *arriving* (each fresh, age zero) at roughly
    # the service rate — the arrival stream that starves un-aged requests
    for i in range(5):
        vce.run(until=vce.sim.now + 6.0)
        runs[f"vip{i}"] = vce.submit(
            build_sweep_graph(points=1, work_per_point=6.0, name=f"vip{i}"),
            priority=10.0,
            queue_if_insufficient=True,
        )
    vce.run(until=vce.sim.now + 400.0)
    completion = {
        name: (run.completed_at if run.state is RunState.DONE else None)
        for name, run in runs.items()
    }
    victim_done = completion.pop("victim")
    vip_times = [t for t in completion.values() if t is not None]
    return {
        "victim_done": victim_done,
        "vips_done_before_victim": sum(1 for t in vip_times if victim_done and t < victim_done),
        "all_done": victim_done is not None and len(vip_times) == 5,
    }


def test_e4_priority_aging():
    """E4 — starvation prevention by priority aging (§4.3).

    "As a task waits to be dispatched its priority will be increased to
    insure it will eventually be dispatched even if that results in a
    globally suboptimal schedule."

    Setup: a one-machine group is kept saturated by a stream of
    high-priority jobs; one low-priority job is queued first. With aging,
    the old low-priority request overtakes fresh high-priority arrivals and
    completes; without aging (rate 0) it is served dead last.
    """
    results = {
        "aging 2.0/s": _e4_run(aging_rate=2.0),
        "aging 0.2/s": _e4_run(aging_rate=0.2),
        "no aging": _e4_run(aging_rate=0.0),
    }
    print()
    print(
        format_table(
            ["queue policy", "victim completion (s)", "VIPs served before victim (of 5)"],
            [
                [name, r["victim_done"] or "never", r["vips_done_before_victim"]]
                for name, r in results.items()
            ],
            title="E4: low-priority job vs a stream of high-priority jobs",
        )
    )
    strong, weak, none = (
        results["aging 2.0/s"],
        results["aging 0.2/s"],
        results["no aging"],
    )
    assert strong["all_done"] and weak["all_done"] and none["all_done"]
    # stronger aging serves the victim earlier in the queue order
    assert strong["vips_done_before_victim"] <= weak["vips_done_before_victim"]
    # without aging the victim loses to (nearly) every fresh arrival
    assert none["vips_done_before_victim"] >= 4
    # with strong aging the old request overtakes the fresh VIP stream
    assert strong["vips_done_before_victim"] <= 1
    assert strong["victim_done"] < none["victim_done"]


# ---------------------------------------------------------------- E5

E5_WORK = 60.0
E5_MIGRATE_AT = 25.0  # between checkpoints: the checkpoint scheme loses work
E5_CHECKPOINT_EVERY = 10.0  # sparse, as real long-running jobs checkpoint


def _e5_graph(name, language="hpf", memory_mb=16):
    def program(ctx):
        done = ctx.restored_state or 0.0
        while done < E5_WORK:
            yield Compute(E5_CHECKPOINT_EVERY)
            done += E5_CHECKPOINT_EVERY
            yield Checkpoint(done, size=500_000)
        return done

    graph = ProblemSpecification(name).task("job", work=E5_WORK, memory_mb=memory_mb).build()
    node = graph.task("job")
    node.problem_class = ProblemClass.ASYNCHRONOUS
    node.language = language
    node.program = program
    return graph


def _e5_baseline():
    cluster = make_cluster(2)
    graph = _e5_graph("base")
    app = cluster.manager.submit(graph, place_all_on(graph, "ws0"))
    cluster.run()
    assert app.status is AppStatus.DONE
    return app.makespan


def _e5_migrated(scheme_factory, prepare=None):
    cluster = make_cluster(2)
    comp = CompilationManager(cluster.db)
    context = MigrationContext(cluster.manager, cluster.net, comp)
    graph = _e5_graph("mig")
    if prepare:
        prepare(comp, graph)
    app = cluster.manager.submit(graph, place_all_on(graph, "ws0"))
    scheme = scheme_factory(context)
    latencies = []
    if isinstance(scheme, RedundantExecutionManager):
        cluster.run(until=1.0)
        scheme.dispatch_redundant(app, app.record("job", 0), ["ws1"])
    cluster.run(until=E5_MIGRATE_AT)
    scheme.migrate(app, app.record("job", 0), "ws1", on_done=latencies.append)
    cluster.run()
    assert app.status is AppStatus.DONE, "migrated app failed"
    assert app.record("job", 0).host_name == "ws1"
    return latencies[0], app.makespan


def test_e5_scheme_comparison():
    """E5 — the four process-migration schemes compared (§4.4).

    One checkpointing task is migrated mid-run between two machines under
    each scheme. Reported: the migration latency (time until the task runs
    at the destination) and the completion overhead (extra makespan vs an
    unmigrated run). Expected shape, straight from the paper:

    - redundant: ~zero latency ("low overhead ... avoids the communication
      overhead of moving a process and its state");
    - dump: transfer-bound, exact (no recomputation), homogeneous only;
    - checkpoint: restore cost plus recomputation since the last record
      ("expensive and may require the cooperation of the task");
    - recompile: compile-time-bound ("very expensive but may be very
      robust") — unless a binary was prepared anticipatorily.
    """
    baseline = _e5_baseline()
    rows = {
        "redundant": _e5_migrated(RedundantExecutionManager),
        "dump": _e5_migrated(DumpMigration),
        "checkpoint": _e5_migrated(CheckpointMigration),
        "recompile (cold)": _e5_migrated(
            lambda ctx: RecompileMigration(ctx, use_checkpoint=True)
        ),
        "recompile (anticipatory)": _e5_migrated(
            lambda ctx: RecompileMigration(ctx, use_checkpoint=True),
            prepare=lambda comp, graph: comp.compile_all(comp.plan(graph)),
        ),
    }
    print()
    print(
        format_table(
            ["scheme", "migration latency (s)", "makespan overhead vs no-migration (s)"],
            [
                [name, latency, makespan - baseline]
                for name, (latency, makespan) in rows.items()
            ],
            title=f"E5: migrating a {E5_WORK:.0f}s task at t={E5_MIGRATE_AT:.0f}s "
                  f"(baseline makespan {baseline:.1f}s)",
        )
    )

    lat = {name: latency for name, (latency, _) in rows.items()}
    over = {name: makespan - baseline for name, (_, makespan) in rows.items()}
    # paper-predicted cost structure:
    # redundant — free: an already-running copy is adopted instantly
    assert lat["redundant"] == 0.0
    assert over["redundant"] <= 1.5
    # checkpoint — restore is quick but the work since the last record is
    # recomputed ("expensive and may require the cooperation of the task")
    assert lat["checkpoint"] < 1.0
    assert over["checkpoint"] > E5_CHECKPOINT_EVERY / 4  # real lost work
    # dump — pays the full image transfer (frozen) but loses nothing
    assert 5.0 < lat["dump"] < lat["recompile (cold)"]
    assert abs(over["dump"] - lat["dump"]) < 2.0
    # recompile — dominated by compile time... unless a binary was prepared
    # anticipatorily (§4.5), which collapses it to near-checkpoint cost
    assert lat["recompile (cold)"] > 15.0
    assert over["recompile (cold)"] >= max(
        over["dump"], over["checkpoint"], over["redundant"]
    )
    assert lat["recompile (anticipatory)"] < lat["recompile (cold)"] / 5


def test_e5_dump_requires_homogeneity():
    """E5b — dump refuses a heterogeneous pair while recompile succeeds:
    the robustness/cost trade the paper describes (§4.4)."""
    cluster = make_cluster(1, extra_machines=[("mimd0", MachineClass.MIMD, 10.0)])
    comp = CompilationManager(cluster.db)
    context = MigrationContext(cluster.manager, cluster.net, comp)
    graph = _e5_graph("cross", language="hpf")
    app = cluster.manager.submit(graph, place_all_on(graph, "ws0"))
    cluster.run(until=E5_MIGRATE_AT)
    record = app.record("job", 0)
    dump_ok, dump_reason = DumpMigration(context).can_migrate(app, record, "mimd0")
    rec = RecompileMigration(context, use_checkpoint=True)
    rec_ok, _ = rec.can_migrate(app, record, "mimd0")
    rec.migrate(app, record, "mimd0")
    cluster.run()
    print()
    print(
        format_table(
            ["scheme", "workstation -> MIMD migration"],
            [
                ["dump", f"refused ({dump_reason[:40]}...)"],
                ["recompile", f"succeeded, finished on {record.host_name}"],
            ],
            title="E5b: heterogeneous migration robustness",
        )
    )
    assert not dump_ok and "homogeneity" in dump_reason
    assert rec_ok and app.status is AppStatus.DONE and record.host_name == "mimd0"


# ---------------------------------------------------------------- E6

E6_BURST_START = 20.0
E6_BURST_END = 220.0


def _e6_run(policy_name: str, seed=9):
    # ws0..ws3 host the diamond; ws1 gets a long owner burst; ws4 stays idle
    vce = fresh_vce(workstations(5), seed=seed)
    graph = build_diamond_graph(width=3, branch_work=30.0, name=f"dag-{policy_name}")
    if policy_name == "suspend":
        vce.enable_load_balancing(SuspendResumePolicy(), busy_threshold=0.5, interval=0.5)
    elif policy_name == "migrate":
        vce.enable_load_balancing(
            MigrateOnLoadPolicy(vce.migration), busy_threshold=0.5, interval=0.5
        )
    else:
        vce.enable_load_balancing(NoActionPolicy(), busy_threshold=0.5, interval=0.5)
    run = vce.submit(graph)
    # find which machine hosts a branch, then hit it with an owner burst
    vce.run(until=vce.sim.now + 5.0)
    assert run.placement is not None
    victim = run.placement.host_for("b0", 0)
    base = vce.sim.now
    vce.database.get(victim).background_load = TraceLoad(
        [(base + E6_BURST_START - 5.0, 0.95), (base + E6_BURST_END, 0.0)]
    )
    vce.run_to_completion(run, timeout=3_000.0)
    assert run.state is RunState.DONE
    log = vce.sim.log
    sink_start = next(
        r.time - base for r in log.records(category="task.start") if r.get("task") == "sink"
    )
    return {
        "makespan": run.app.makespan,
        "sink_start": sink_start,
        "migrations": len(vce.metrics().migrations()),
        "suspended_for": sum(vce.metrics().suspension_spans()),
    }


def test_e6_ripple_effect():
    """E6 — the ripple effect: suspension vs migration on dependency graphs.

    "If a virtual machine task is suspended to allow execution of local
    tasks, initiation of other tasks dependent on the output of the
    suspended task could be delayed. This ripple effect could adversely
    affect system throughput." (§4.3)

    A diamond DAG runs while one branch's machine gets a long local-work
    burst. Three policies: do nothing, suspend the remote work
    (Clark/Ju/Krueger), or migrate it (§4.4 schemes). The downstream sink's
    start time shows the ripple; migration contains it.
    """
    results = {
        "no action": _e6_run("none"),
        "suspend (Stealth-style)": _e6_run("suspend"),
        "migrate": _e6_run("migrate"),
    }
    print()
    print(
        format_table(
            ["policy", "makespan (s)", "sink start (s)", "migrations", "suspended (s)"],
            [
                [k, v["makespan"], v["sink_start"], v["migrations"], v["suspended_for"]]
                for k, v in results.items()
            ],
            title="E6: diamond DAG under a ~200s owner burst on one branch host",
        )
    )
    none, susp, mig = (
        results["no action"],
        results["suspend (Stealth-style)"],
        results["migrate"],
    )
    # suspension parks the branch until the owner leaves: the sink (and the
    # whole application) ride out the burst — the ripple effect
    assert susp["sink_start"] > E6_BURST_END * 0.8
    assert susp["makespan"] > mig["makespan"] * 2
    # migration moves the branch to an idle machine: modest overhead only
    assert mig["migrations"] >= 1
    assert mig["makespan"] < 100.0
    # doing nothing is better than suspending here (5% CPU trickles on) but
    # still far worse than migrating
    assert mig["makespan"] < none["makespan"]


# ---------------------------------------------------------------- E7

E7_TOTAL_WORK = 240.0
E7_FARM_SIZES = [1, 2, 4, 8, 16, 32]


def _e7_run_farm(n: int, seed=10):
    vce = fresh_vce(workstations(n), seed=seed)
    batches = 20
    graph = build_monte_carlo_graph(
        workers=n,
        samples_per_worker=12_000 // n,
        batches=batches,
        work_per_batch=E7_TOTAL_WORK / n / batches,
        sync_every_batch=True,  # periodic estimate combining: the overhead
        sync_size=40_000,       # that erodes efficiency as the farm widens
    )
    run = vce.submit(graph)
    finish(vce, run, timeout=10_000.0)
    return run.app.makespan


def test_e7_free_parallelism():
    """E7 — free parallelism (§4.5).

    "If 100 idle machines are available and the only way to use them is to
    distribute a single application over all 100 machines to realize a 10%
    speed-up, it is still worth doing because the 10% speed-up comes for
    'free'."

    A fixed-size Monte Carlo job is spread over 1..32 idle workstations.
    The per-worker fixed costs (allocation, collectives over more ranks,
    stage-in) erode efficiency as the farm widens — yet speedup keeps
    growing: the paper's point. Reported: speedup and efficiency vs machine
    count.
    """
    makespans = {n: _e7_run_farm(n) for n in E7_FARM_SIZES}
    t1 = makespans[1]
    speedups = [t1 / makespans[n] for n in E7_FARM_SIZES]
    efficiencies = [s / n for s, n in zip(speedups, E7_FARM_SIZES)]
    print()
    print(
        format_table(
            ["machines", "makespan (s)", "speedup", "efficiency"],
            [
                [n, makespans[n], s, e]
                for n, s, e in zip(E7_FARM_SIZES, speedups, efficiencies)
            ],
            title=f"E7: fixed {E7_TOTAL_WORK:.0f}s Monte Carlo job over idle machines",
        )
    )
    print(format_series("speedup", E7_FARM_SIZES, speedups))

    # speedup keeps rising with every doubling — the "free" gain
    for a, b in zip(speedups, speedups[1:]):
        assert b > a
    # while efficiency decays — on dedicated hardware you'd stop; on idle
    # machines you don't care
    assert efficiencies[-1] < 0.8 * efficiencies[0]
    assert speedups[-1] > 4.0


# ---------------------------------------------------------------- E8


def _e8_weather_run(anticipatory: bool, seed=11):
    vce = fresh_vce(heterogeneous_cluster(n_workstations=6), seed=seed)
    graph = build_weather_graph(predict_work=100.0)
    # use a compiled language so compilation costs are realistic
    for node in graph:
        node.language = "hpf"
    if anticipatory:
        vce.prepare(graph)
        vce.run(until=vce.sim.now + 120.0)  # idle time before submission
    submit_time = vce.sim.now
    run = vce.submit(graph)
    finish(vce, run)
    first_start = min(
        r.time for r in vce.sim.log.records(category="task.start")
        if r.time >= submit_time
    )
    return {
        "start_latency": first_start - submit_time,
        "makespan": run.app.makespan,
        "on_demand_compiles": vce.compilation.on_demand_compiles,
    }


def test_e8_anticipatory_compilation():
    """E8 — anticipatory processing (§4.5): anticipatory compilation.

    The weather app's modules are compiled on idle machines *before*
    submission vs compiled on demand at dispatch. Start latency (submit →
    first task running) and makespan both drop.
    """
    results = {
        "anticipatory (compiled ahead)": _e8_weather_run(True),
        "on-demand (compile at dispatch)": _e8_weather_run(False),
    }
    print()
    print(
        format_table(
            ["mode", "start latency (s)", "makespan (s)", "on-demand compiles"],
            [
                [k, v["start_latency"], v["makespan"], v["on_demand_compiles"]]
                for k, v in results.items()
            ],
            title="E8: anticipatory vs on-demand compilation (weather app, HPF)",
        )
    )
    ahead = results["anticipatory (compiled ahead)"]
    demand = results["on-demand (compile at dispatch)"]
    assert ahead["on_demand_compiles"] == 0
    assert demand["on_demand_compiles"] >= 4
    # compile time (20s base per HPF target) leaves the critical path
    assert ahead["start_latency"] < 2.0
    assert demand["start_latency"] > 10.0
    assert ahead["makespan"] < demand["makespan"] - 10.0


def _e8_replication_run(replicate: bool, seed=12):
    vce = fresh_vce(workstations(4), seed=seed)
    # the dataset lives on ws3 only; the bidding tie-break places the
    # consumer on ws0, so an un-replicated run pays the remote fetch
    vce.database.get("ws3").files.add("era.dat")

    def consumer(ctx):
        yield ReadFile("era.dat", size=12_500_000)  # 10s fetch if remote
        yield Compute(5.0)
        return "done"

    graph = ProblemSpecification("reader").task("consumer", work=5.0).build()
    node = graph.task("consumer")
    node.problem_class = ProblemClass.ASYNCHRONOUS
    node.language = "py"
    node.program = consumer
    node.requirements = {"min_memory_mb": 1}
    if replicate:
        vce.anticipatory.replicate_files(
            {"era.dat": 12_500_000}, [f"ws{i}" for i in range(4)]
        )
        vce.run(until=vce.sim.now + 60.0)  # replication happens while idle
    run = vce.submit(graph)
    finish(vce, run)
    return run.app.makespan


def test_e8_file_replication():
    """E8b — anticipatory file replication (§4.5): the predictor needs an
    input file that lives on one machine; replicating it to all candidate
    hosts while idle removes the fetch from the consumer's critical path."""
    results = {
        "replicated ahead": _e8_replication_run(True),
        "fetch on first read": _e8_replication_run(False),
    }
    print()
    print(
        format_table(
            ["mode", "makespan (s)"],
            [[k, v] for k, v in results.items()],
            title="E8b: anticipatory input-file replication (12.5 MB dataset)",
        )
    )
    assert results["replicated ahead"] < results["fetch on first read"] - 5.0


# ---------------------------------------------------------------- E9

E9_TIMEOUTS = [1.0, 2.0, 4.0, 8.0]


def _e9_transfer_time(hb_timeout: float, seed=13):
    config = VCEConfig(
        seed=seed,
        isis=IsisConfig(hb_interval=hb_timeout / 4, hb_timeout=hb_timeout),
        settle_time=20.0,
    )
    vce = fresh_vce(workstations(5), config=config)
    vce.faults.crash_leader_at(vce.directory, MachineClass.WORKSTATION, vce.sim.now + 1.0)
    vce.run(until=vce.sim.now + 40.0 + 10 * hb_timeout)
    times = leadership_transfer_times(vce.sim.log, "vce.WORKSTATION")
    assert times, f"no takeover happened for hb_timeout={hb_timeout}"
    # scheduling still works under the new leader
    run = vce.submit(build_sweep_graph(points=1, work_per_point=1.0, name="probe"))
    vce.run_to_completion(run)
    assert run.state is RunState.DONE
    return times[0]


def test_e9_leader_recovery_latency():
    """E9 — fault tolerance (§5): leadership transfer vs the
    failure-detection timeout.

    "Isis provides error notification functions which are used to allow
    the oldest surviving member of the group to assume the role of group
    leader in case the group leader fails. Machines can enter or leave the
    group at any time."

    The leader is crashed under each heartbeat timeout of an ablation over
    the knob; the takeover latency must track the timeout.
    """
    results = {t: _e9_transfer_time(t) for t in E9_TIMEOUTS}
    print()
    print(
        format_table(
            ["hb timeout (s)", "leadership transfer (s)"],
            [[t, v] for t, v in results.items()],
            title="E9: leader-crash recovery vs failure-detection timeout",
        )
    )
    print(format_series("transfer", list(results), list(results.values())))
    # recovery latency tracks the detection timeout (rank-1 takeover fires
    # after ~2x hb_timeout plus a flush round)
    values = [results[t] for t in E9_TIMEOUTS]
    assert all(a < b for a, b in zip(values, values[1:]))
    for timeout, value in results.items():
        assert value < 8 * timeout + 5.0


def test_e9_churn_survival():
    """E9b — jobs keep completing while non-leader machines churn (§5:
    "Machines can enter or leave the group at any time"), and new leaders
    keep allocating."""
    config = VCEConfig(seed=14, settle_time=20.0)
    vce = fresh_vce(workstations(8), config=config)
    leader_host = vce.directory.leader(MachineClass.WORKSTATION).host
    # churn everything except the leader and ws7 (so capacity remains)
    vce.faults.churn(
        [f"ws{i}" for i in range(8)],
        mean_up=60.0,
        mean_down=20.0,
        until=vce.sim.now + 400.0,
        spare={leader_host, "ws7"},
    )
    outcomes = []
    for i in range(8):
        run = vce.submit(
            build_sweep_graph(points=1, work_per_point=5.0, name=f"job{i}"),
            queue_if_insufficient=True,
        )
        vce.run(until=vce.sim.now + 50.0)
        outcomes.append(run)
    vce.run(until=vce.sim.now + 300.0)
    done = sum(1 for r in outcomes if r.state is RunState.DONE)
    crashes = vce.faults.crashes
    print()
    print(
        format_table(
            ["jobs submitted", "jobs completed", "host crashes injected"],
            [[len(outcomes), done, crashes]],
            title="E9b: job survival under daemon churn",
        )
    )
    assert crashes >= 3  # the churn actually happened
    assert done >= len(outcomes) - 1  # at most one straggler lost to timing


def test_e9_task_recovery_latency():
    """E9c — task recovery under the fault-tolerant execution layer: a host
    running a pipeline stage is crash-restarted mid-run; the strand →
    re-dispatch deltas and the makespan penalty against a fault-free twin
    are read from the cost ledger's ``faults_e9`` and ``faults_e9_calm``
    rows, which pin them exactly."""
    faulty, calm = measured("faults_e9"), measured("faults_e9_calm")
    latencies = faulty["recovery_latencies"]
    ratio = faulty["makespan"] / calm["makespan"]
    print()
    print(
        format_table(
            ["quantity", "value"],
            [
                ["recoveries", len(latencies)],
                ["recovery latency mean (s)", f"{statistics.mean(latencies):.3f}"],
                ["recovery latency max (s)", f"{max(latencies):.3f}"],
                ["makespan fault-free (s)", f"{calm['makespan']:.2f}"],
                ["makespan under faults (s)", f"{faulty['makespan']:.2f}"],
                ["makespan penalty", f"{ratio:.2f}x"],
            ],
            title="E9c: task recovery under a daemon crash-restart",
        )
    )
    assert faulty["injected"].get("crash") == 1
    assert latencies, "the bounce never stranded a task"
    # detection delay (2 s) dominates; anything near the lease (8 s) means
    # the failure handler missed the crash
    assert max(latencies) < 6.0
    assert ratio < 3.0


# ---------------------------------------------------------------- E10


class Sink(SimProcess):
    def __init__(self, name):
        super().__init__(name)
        self.got = []

    def on_message(self, src, payload):
        if isinstance(payload, ChannelDelivery):
            self.got.append((self.now, payload.data))


def _one_hop_rig(n_stages: int, messages: int = 50):
    sim = Simulator(15)
    net = Network(sim)
    mgr = ChannelManager(net)
    chan = mgr.create("c")
    net.add_host("src")
    sink_host = net.add_host("dst")
    sink = Sink("sink")
    sink_host.spawn(sink)
    chan.attach(Port("rx", sink.address, PortDirection.RECEIVE))
    for i in range(n_stages):
        ihost = net.add_host(f"i{i}")
        stage = DataConversionInterposer(f"conv{i}", seconds_per_byte=1e-7)
        ihost.spawn(stage)
        sim.run(until=sim.now + 0.01)
        chan.split(stage)
    tx = Port("tx", Address("src", "nobody"), PortDirection.SEND)
    start = sim.now
    for i in range(messages):
        chan.send(tx, i, size=1000)
    sim.run()
    assert len(sink.got) == messages
    # all messages were injected at the same instant, so each arrival time
    # minus start is that message's end-to-end delivery latency
    return sum(t - start for t, _ in sink.got) / messages


def test_e10_interposition_overhead():
    """E10 — channel mechanics (§4.2): interposition overhead, the
    per-message latency through 0, 1, and 2 interposer stages (each stage
    is an extra network hop + processing)."""
    results = {n: _one_hop_rig(n) for n in (0, 1, 2)}
    print()
    print(
        format_table(
            ["interposer stages", "mean delivery latency (s)"],
            [[n, v] for n, v in results.items()],
            title="E10: channel splitting cost",
        )
    )
    # each stage adds roughly one hop of latency
    assert results[0] < results[1] < results[2]
    hop = results[1] - results[0]
    assert abs((results[2] - results[1]) - hop) < hop  # ~linear in stages


def test_e10_redirection_midstream():
    """E10b — redirection (§4.2): a receiver is rebound mid-stream (the
    migration hook); messages keep flowing to the new endpoint and none are
    misdelivered after the rebind."""
    sim = Simulator(16)
    net = Network(sim)
    chan = ChannelManager(net).create("c")
    net.add_host("src")
    h1, h2 = net.add_host("h1"), net.add_host("h2")
    old, new = Sink("old"), Sink("new")
    h1.spawn(old)
    h2.spawn(new)
    chan.attach(Port("rx", old.address, PortDirection.RECEIVE))
    tx = Port("tx", Address("src", "nobody"), PortDirection.SEND)
    for i in range(20):
        chan.send(tx, ("pre", i))
    sim.run()
    chan.rebind("rx", new.address)  # the migration hook
    for i in range(20):
        chan.send(tx, ("post", i))
    sim.run()
    old_got, new_got = [d for _, d in old.got], [d for _, d in new.got]
    print()
    print(
        format_table(
            ["endpoint", "pre-rebind msgs", "post-rebind msgs"],
            [
                ["old receiver", sum(1 for k, _ in old_got if k == "pre"),
                 sum(1 for k, _ in old_got if k == "post")],
                ["new receiver", sum(1 for k, _ in new_got if k == "pre"),
                 sum(1 for k, _ in new_got if k == "post")],
            ],
            title="E10b: mid-stream port redirection",
        )
    )
    assert [k for k, _ in old_got] == ["pre"] * 20
    assert [k for k, _ in new_got] == ["post"] * 20


def _fanout(n):
    sim = Simulator(17)
    net = Network(sim)
    chan = ChannelManager(net).create("c")
    net.add_host("src")
    sinks = []
    for i in range(n):
        host = net.add_host(f"r{i}")
        sink = Sink(f"s{i}")
        host.spawn(sink)
        chan.attach(Port(f"rx{i}", sink.address, PortDirection.RECEIVE))
        sinks.append(sink)
    tx = Port("tx", Address("src", "nobody"), PortDirection.SEND)
    chan.send(tx, "hello", size=500)  # the SAME call regardless of n
    sim.run()
    assert all(len(s.got) == 1 for s in sinks)
    return max(t for s in sinks for t, _ in s.got)


def test_e10_group_addressing():
    """E10c — group vs individual addressing (§4.2): the *same send call*
    reaches 1..16 receivers — "clients may be unaware of whether messages
    are being received by groups or individuals"."""
    results = {n: _fanout(n) for n in (1, 2, 4, 8, 16)}
    print()
    print(format_series("group-delivery completion (s)",
                        list(results), list(results.values())))
    # one send reaches any group size; completion time stays ~flat because
    # copies travel in parallel
    assert results[16] < 3 * results[1] + 0.01


# ---------------------------------------------------------------- E11


def _e11_weather_makespan(machines, seed=18):
    vce = fresh_vce(machines, seed=seed)
    graph = build_weather_graph(predict_work=400.0)
    run = vce.submit(graph)
    finish(vce, run)
    return run.app.makespan, run.placement.host_for("predictor", 0)


def test_e11_class_mapping():
    """E11 — heterogeneity: mapping problem classes to machine classes
    (§4.1).

    Class mapping pays off: the weather application on (a) an
    all-workstation cluster and (b) the paper's heterogeneous site, where
    the SYNC-classified predictor lands on a 40x SIMD machine. The
    design-stage classification plus the class map is what routes it
    there.
    """
    homo_ms, homo_host = _e11_weather_makespan(workstations(9))
    hetero_ms, hetero_host = _e11_weather_makespan(
        heterogeneous_cluster(n_workstations=6, n_mimd=2, n_simd=1)
    )
    print()
    print(
        format_table(
            ["cluster", "predictor ran on", "makespan (s)"],
            [
                ["9 workstations (homogeneous)", homo_host, homo_ms],
                ["6 ws + 2 MIMD + 1 SIMD (heterogeneous)", hetero_host, hetero_ms],
            ],
            title="E11: SYNC-class predictor routed by the class map",
        )
    )
    assert homo_host.startswith("ws")
    assert hetero_host.startswith("simd")
    # the 400-unit predictor dominates; a 40x machine collapses it
    assert hetero_ms < homo_ms / 4


def _e11_move_run(prepare: bool, seed=19):
    machines = heterogeneous_cluster(n_workstations=3, n_mimd=1, n_simd=0)
    vce = fresh_vce(machines, seed=seed)

    def program(ctx):
        done = ctx.restored_state or 0.0
        while done < 120.0:
            yield Compute(5.0)
            done += 5.0
            yield Checkpoint(done, size=10_000)
        return done

    graph = ProblemSpecification("movable").task("job", work=120.0).build()
    node = graph.task("job")
    node.problem_class = ProblemClass.LOOSELY_SYNCHRONOUS  # MIMD-preferred
    node.language = "hpf"
    node.program = program
    if prepare:
        vce.compilation.compile_all(vce.compilation.plan(graph))
    # force a workstation start, then move to the MIMD machine mid-run
    run = vce.submit(graph, class_map={"job": MachineClass.WORKSTATION})
    vce.run(until=vce.sim.now + 20.0)
    app = run.app
    record = app.record("job", 0)
    latencies = []
    scheme = RecompileMigration(vce.migration.context, use_checkpoint=True)
    scheme.migrate(app, record, "mimd0", on_done=latencies.append)
    vce.run_to_completion(run)
    assert app.status is AppStatus.DONE
    assert record.host_name == "mimd0"
    return latencies[0], run.app.makespan


def test_e11_prepared_binaries_enable_moves():
    """E11b — prepare-everything enables cross-class moves (§4.1): with
    binaries prepared for *all* feasible classes, the runtime moves a task
    from a workstation to a MIMD machine mid-run "without the need to
    compile a task while the application is running"."""
    results = {
        "binaries prepared for all classes": _e11_move_run(True),
        "compile at migration time": _e11_move_run(False),
    }
    print()
    print(
        format_table(
            ["mode", "cross-class migration latency (s)", "makespan (s)"],
            [[k, lat, ms] for k, (lat, ms) in results.items()],
            title="E11b: workstation -> MIMD move with/without prepared binaries",
        )
    )
    prepared_lat, _ = results["binaries prepared for all classes"]
    cold_lat, _ = results["compile at migration time"]
    assert prepared_lat < 1.0
    assert cold_lat > 15.0  # the HPF compile lands on the critical path


# ---------------------------------------------------------------- E12

E12_SIZES = [2, 4, 8, 16, 32]
E12_REPS = 20


def _collective_time(kind: str, n: int, serialize: bool | None = None, seed=20):
    """Mean latency of one *kind* collective over *n* ranks; E12b's
    ablation passes *serialize* (one NIC per host or not)."""

    def program(ctx):
        # warm-up barrier aligns all ranks before timing
        yield from barrier(ctx)
        yield Emit("coll.begin", {"rank": ctx.rank})
        for _ in range(E12_REPS):
            if kind == "barrier":
                yield from barrier(ctx)
            elif kind == "bcast":
                yield from bcast(ctx, "payload" if ctx.rank == 0 else None, size=1000)
            elif kind == "allreduce":
                yield from allreduce(ctx, ctx.rank, op=sum, size=1000)
            elif kind == "alltoall":
                yield from alltoall(ctx, list(range(ctx.size)), size=1000)
        yield Emit("coll.end", {"rank": ctx.rank})
        return None

    ablation = serialize is not None
    config = VCEConfig(seed=seed, egress_serialization=bool(serialize))
    vce = fresh_vce(workstations(n), config=config)
    name = f"x{kind}{n}{serialize}" if ablation else f"{kind}{n}"
    graph = ProblemSpecification(name).task("t", instances=n).build()
    node = graph.task("t")
    node.problem_class = ProblemClass.LOOSELY_SYNCHRONOUS
    node.language = "py"
    node.program = program
    run = vce.submit(graph)
    finish(vce, run, timeout=5_000.0 if ablation else 3_000.0)
    log = vce.sim.log
    begin = max(r.time for r in log.records(category="coll.begin"))
    end = max(r.time for r in log.records(category="coll.end"))
    return (end - begin) / E12_REPS


def test_e12_collective_scaling():
    """E12 — vMPI collectives over channels (§4.2).

    Latency of barrier / broadcast / allreduce as the communicator widens.
    The library uses binomial trees for bcast/reduce, so per-collective
    latency should grow ~logarithmically in the rank count (each doubling
    adds about one round-trip), not linearly.
    """
    kinds = ("barrier", "bcast", "allreduce", "alltoall")
    results = {kind: {n: _collective_time(kind, n) for n in E12_SIZES} for kind in kinds}
    print()
    print(
        format_table(
            ["ranks", "barrier (s)", "bcast (s)", "allreduce (s)", "alltoall (s)"],
            [[n] + [results[k][n] for k in kinds] for n in E12_SIZES],
            title="E12: vMPI collective latency vs communicator size",
        )
    )
    for kind in kinds:
        print(format_series(kind, E12_SIZES, [results[kind][n] for n in E12_SIZES]))

    for kind in ("barrier", "bcast", "allreduce"):
        times = [results[kind][n] for n in E12_SIZES]
        # latency grows with group size...
        assert times[-1] > times[0]
        # ...but logarithmically, not linearly: growing ranks 16x (2->32)
        # costs well under 8x the latency (binomial trees: ~5 rounds vs 1)
        assert times[-1] < 8 * times[0], f"{kind} scaled worse than log"
        # each doubling adds at most ~2 extra rounds' worth
        per_double = [b / a for a, b in zip(times, times[1:])]
        assert max(per_double) < 2.5, f"{kind} doubling blew up: {per_double}"
    # allreduce = reduce + bcast, so it costs more than bcast alone
    assert results["allreduce"][16] > results["bcast"][16]
    # alltoall sends its p-1 personalized messages concurrently; under the
    # LAN model (independent per-message delivery, no per-NIC egress
    # serialization — a documented simplification) its completion time is
    # one wire latency regardless of p, unlike the multi-round trees
    a2a = [results["alltoall"][n] for n in E12_SIZES]
    assert max(a2a) < 2 * min(a2a)  # ~flat
    assert a2a[-1] < results["allreduce"][32]  # single round beats log rounds


def test_e12b_nic_serialization_ablation():
    """E12b — network-model ablation: with one NIC per host (egress
    serialization), alltoall's p-1 personalized transmissions queue for
    the wire and its latency grows ~linearly in p — the behaviour the
    plain infinite-NIC model hides. Tree collectives, whose per-round
    fan-out is 1 message per sender, barely change."""
    results = {
        n: {
            "alltoall (infinite NIC)": _collective_time("alltoall", n, serialize=False),
            "alltoall (one NIC)": _collective_time("alltoall", n, serialize=True),
            "allreduce (one NIC)": _collective_time("allreduce", n, serialize=True),
        }
        for n in (4, 16)
    }
    print()
    print(
        format_table(
            ["ranks", "collective / NIC model", "latency (s)"],
            [[n, name, v] for n, values in results.items() for name, v in values.items()],
            title="E12b: per-NIC egress serialization ablation",
        )
    )
    # with one NIC, widening 4 -> 16 ranks inflates alltoall sharply
    # (4x the personalized messages through one wire)...
    flat = results[16]["alltoall (infinite NIC)"] / results[4]["alltoall (infinite NIC)"]
    serialized = results[16]["alltoall (one NIC)"] / results[4]["alltoall (one NIC)"]
    assert serialized > 2 * flat
    # ...while the tree collective's growth stays modest
    assert results[16]["allreduce (one NIC)"] < results[16]["alltoall (one NIC)"] * 2


# ---------------------------------------------------------------- E13

E13_WAN = LatencyModel(base_latency=0.05, bandwidth=125_000, jitter=0.0)
E13_ITERATIONS = 25


def _e13_vce(seed=31):
    machines = multi_site_cluster({"syr": 4, "cornell": 4})
    return fresh_vce(machines, config=VCEConfig(seed=seed, wan_latency=E13_WAN))


def _e13_run_packed():
    vce = _e13_vce()
    graph = build_stencil_graph(ranks=4, cells=32, iterations=E13_ITERATIONS)
    vce.compilation.compile_all(vce.compilation.plan(graph))  # binaries ready
    run = vce.submit(
        graph,
        class_map={"grid": MachineClass.WORKSTATION},
        policy=site_packed_assignment,
    )
    finish(vce, run, timeout=10_000.0)
    sites = {run.placement.host_for("grid", r).split("-")[0] for r in range(4)}
    return run.app.makespan, sites


def _e13_run_scattered():
    vce = _e13_vce(seed=32)
    graph = build_stencil_graph(ranks=4, cells=32, iterations=E13_ITERATIONS)
    vce.compilation.compile_all(vce.compilation.plan(graph))  # binaries ready
    placement = Placement()
    # alternate ranks across campuses: every halo exchange crosses the WAN
    hosts = ["syr-ws0", "cornell-ws0", "syr-ws1", "cornell-ws1"]
    for rank, host in enumerate(hosts):
        placement.assign("grid", rank, host)
    app = vce.runtime.submit(graph, placement)
    vce.run(until=vce.sim.now + 20_000.0, stop_when=lambda: app.status.terminal)
    assert app.all_done
    return app.makespan


def test_e13_wan_placement():
    """E13 (extension) — metacomputing across sites.

    The paper opens with "a network of supercomputers and high-performance
    workstations" as the only way to field Grand Challenge resources —
    i.e. machines spanning campuses, not one LAN. A communication-heavy
    synchronous job (halo-exchange stencil) runs on a two-campus VCE joined
    by a 50 ms WAN link, placed site-packed (all ranks on one campus) or
    deliberately scattered across the WAN. Shape: every stencil iteration
    pays a WAN round-trip when scattered, so makespan degrades by orders of
    magnitude for latency-bound iteration counts — why placement must be
    topology-aware once the VCE leaves the LAN.
    """
    packed_ms, packed_sites = _e13_run_packed()
    scattered_ms = _e13_run_scattered()
    print()
    print(
        format_table(
            ["placement", "makespan (s)", "WAN crossings per iteration"],
            [
                [f"site-packed (all on {next(iter(packed_sites))})", packed_ms, 0],
                ["scattered across campuses", scattered_ms, "3 halo pairs"],
            ],
            title=f"E13: {E13_ITERATIONS}-iteration stencil on a 2-campus VCE (50ms WAN)",
        )
    )
    assert len(packed_sites) == 1
    # latency-bound: each iteration pays ~one WAN round (halo exchanges in
    # both directions overlap) when scattered; packed stays at LAN latency
    assert scattered_ms > 3 * packed_ms
    assert scattered_ms > E13_ITERATIONS * E13_WAN.base_latency * 0.8


# ---------------------------------------------------------------- A1

A1_WORK = 60.0
A1_MIGRATE_AT = 23.0
A1_CKPT_COST_PER_UNIT = 0.05  # seconds of overhead per checkpoint (big state)


def _checkpointed_run(interval: float, migrate: bool):
    def program(ctx):
        done = ctx.restored_state or 0.0
        while done < A1_WORK:
            chunk = min(interval, A1_WORK - done)
            yield Compute(chunk)
            done += chunk
            yield Checkpoint(done, size=int(A1_CKPT_COST_PER_UNIT / 2e-8))
        return done

    cluster = make_cluster(2)
    graph = _program_graph(f"ck{interval}-{migrate}", program, work=A1_WORK)
    app = cluster.manager.submit(graph, place_all_on(graph, "ws0"))
    if migrate:
        cluster.run(until=A1_MIGRATE_AT)
        CheckpointMigration(
            MigrationContext(cluster.manager, cluster.net)
        ).migrate(app, app.record("job", 0), "ws1")
    cluster.run()
    assert app.status is AppStatus.DONE
    return app.makespan


def test_a1_checkpoint_interval():
    """A1 — ablations over the design knobs DESIGN.md calls out:
    checkpoint interval (§4.4). Frequent checkpoints cost steady-state
    overhead but bound the work lost at migration; sparse ones are cheap
    until you migrate. The sweep exposes the trade-off curve."""
    results = {
        i: (_checkpointed_run(i, migrate=False), _checkpointed_run(i, migrate=True))
        for i in (1.0, 5.0, 10.0, 30.0)
    }
    print()
    print(
        format_table(
            ["ckpt interval (s)", "makespan quiet (s)", "makespan w/ migration (s)",
             "migration penalty (s)"],
            [[i, quiet, migrated, migrated - quiet] for i, (quiet, migrated) in results.items()],
            title="A1: checkpoint-interval trade-off (60s job, migrate at t=23)",
        )
    )
    quiet = {i: q for i, (q, _) in results.items()}
    penalty = {i: m - q for i, (q, m) in results.items()}
    # steady-state overhead decreases with sparser checkpoints...
    assert quiet[1.0] > quiet[30.0]
    # ...but the work lost at migration grows
    assert penalty[30.0] > penalty[1.0]


def _redundant_run(copies: int, seed=21):
    def program(ctx):
        yield Compute(30.0)
        return "ok"

    cluster = make_cluster(4, seed=seed)
    graph = _program_graph(f"red{copies}", program, work=30.0)
    app = cluster.manager.submit(graph, place_all_on(graph, "ws0"))
    mgr = RedundantExecutionManager(
        MigrationContext(cluster.manager, cluster.net)
    ).install()  # copies absorb primary failures
    cluster.run(until=1.0)
    record = app.record("job", 0)
    if copies > 1:
        mgr.dispatch_redundant(app, record, [f"ws{i}" for i in range(1, copies)])
    cluster.run(until=10.0)
    cluster.hosts["ws0"].crash()
    cluster.run(until=200.0)
    survived = app.status is AppStatus.DONE
    return survived, (app.makespan if survived else None)


def test_a1_redundancy_degree():
    """A1b — redundancy degree (§4.4 redundant execution): k copies on
    machines that may crash. More copies mean completion despite a primary
    crash, for proportionally more burned capacity."""
    results = {k: _redundant_run(k) for k in (1, 2, 3)}
    print()
    print(
        format_table(
            ["copies", "survived primary crash", "makespan (s)", "capacity used (machines)"],
            [
                [k, "yes" if ok else "NO", ms if ms is not None else "-", k]
                for k, (ok, ms) in results.items()
            ],
            title="A1b: redundant-execution degree under a primary crash at t=10",
        )
    )
    # one copy: the crash kills the job; with redundancy it completes
    assert results[1][0] is False
    assert results[2][0] is True and results[3][0] is True


A1_LOADS = [0.0, 0.55, 0.6, 0.6]


def _threshold_run(threshold: float, seed=22):
    config = VCEConfig(seed=seed, daemon=DaemonConfig(busy_threshold=threshold))
    machines = workstations(4, loads=[ConstantLoad(x) for x in A1_LOADS])
    vce = fresh_vce(machines, config=config)
    graph = build_sweep_graph(points=2, work_per_point=12.0, name=f"th{threshold}")
    run = vce.submit(graph)
    vce.run_to_completion(run, timeout=500.0)
    bids = vce.metrics().bid_counts()
    if bids:
        bid_count = bids[0]
    else:  # allocation failed: the error record carries how many bid
        err = vce.sim.log.first("sched.alloc_error")
        bid_count = err.get("available", 0) if err else 0
    makespan = run.app.makespan if run.state is RunState.DONE else None
    return makespan, bid_count


def test_a1_busy_threshold():
    """A1c — the bidding busy-threshold (§5 "not already excessively
    loaded"), swept on a cluster whose machines carry 0.0 / 0.55 / 0.6 /
    0.6 background load: too low and loaded-but-usable machines never bid
    (allocation failures); too high and work lands on busy machines."""
    results = {t: _threshold_run(t) for t in (0.2, 0.58, 0.9)}
    print()
    print(
        format_table(
            ["busy threshold", "machines bidding", "makespan (s)"],
            [
                [t, bids, ms if ms is not None else "ALLOC FAILED"]
                for t, (ms, bids) in results.items()
            ],
            title="A1c: bid threshold on a [0.0, 0.55, 0.6, 0.6]-loaded cluster",
        )
    )
    # too strict: only the idle machine qualifies and a 2-instance request
    # cannot be satisfied at all
    assert results[0.2][0] is None and results[0.2][1] <= 1
    # permissive thresholds admit progressively more bidders; allocation
    # succeeds and load-sorting still lands work on the lightest machines
    assert results[0.58][0] is not None and results[0.58][1] == 2
    assert results[0.9][0] is not None and results[0.9][1] == 4
    assert results[0.9][0] <= results[0.58][0] + 1.0
