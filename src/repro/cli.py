"""Command-line interface.

Usage (also via ``python -m repro``):

    repro describe SCRIPT.vce
        Parse and interpret an application description script; print the
        resolved modules, instance ranges, and channels.

    repro run SCRIPT.vce [--cluster SPEC] [--seed N] [--default-work W]
                         [--anticipatory] [--policy NAME] [--verbose]
        Boot a simulated VCE, run the script, print placement and metrics.
        Unknown modules get a generic compute program of --default-work
        units; module names matching the built-in weather programs
        (collector/usercollect/predictor/display) use those.

    repro demo {weather,montecarlo,stencil,pipeline}
        Run a built-in workload end to end and print the results.

    repro lint TARGET... [--cluster SPEC] [--json] [--strict]
    repro lint --det PATH... [--baseline FILE] [--json] [--strict]
    repro lint --hb RUN_DIR... [--json] [--strict]
        Static analysis (see repro.analysis and docs/ANALYSIS.md). The
        first form verifies task graphs before any dispatch: a TARGET is
        a .vce script (interpreted against --cluster / --cluster-file)
        or a .py file defining build_graph(); findings cover structure
        (cycles, dangling arcs), channel/protocol misuse, SDM annotation
        problems, and problem-class -> machine-class infeasibility.
        The second form runs the determinism linter over Python sources
        (wall-clock calls, unseeded randomness, unordered-set iteration
        in scheduling paths). The third form replays saved run
        directories (--save-run / POST /api/snapshot) through the
        protocol conformance FSMs (P001-P003). Exit status: 1 if any
        error-severity finding (or, with --strict, any finding at all),
        else 0.

    repro sanitize [SCENARIO...] [--seed N] [--shuffles K]
                   [--baseline FILE] [--json PATH]
        Happens-before race sanitizer (see docs/ANALYSIS.md): runs each
        scenario with the HB tracker + protocol monitor attached, then
        re-runs it K times with seeded permutations of same-timestamp
        ties and classifies every candidate race as real (outcome digest
        diverges under reorder -> error) or benign (digest-stable ->
        warning). Also runs the static FSM/code drift check (P005).
        Default scenarios: all of repro.analysis.sanitize.SCENARIOS —
        the golden determinism workloads plus the injected-race
        self-test fixture. Exit status: 1 on any unsuppressed finding.

    repro chaos SCRIPT.vce [run options] [--schedule NAME] [--fault-seed N]
        Run a script under a named fault schedule with failover on
        (every run already has the reliable transport):
        daemons crash and reboot, messages drop, partitions open and heal.
        Prints the run outcome plus injected-fault and recovery-action
        counts from the telemetry registry. Schedules: see
        repro.faults.SCHEDULES (default chaos-mix). SCRIPT may also be a
        saved run directory (see --save-run / POST /api/snapshot): the
        fault and recovery counts are then read from the saved log.

    repro trace SCRIPT.vce [run options] [--export PATH]
        Run a script exactly like ``repro run``, then reconstruct the
        causal trace: per-application critical path with time attributed
        to comms / queue-wait / compute / migration, plus the pre-submit
        allocation phase. --export writes Chrome trace-event JSON
        (load it in chrome://tracing or Perfetto). SCRIPT may also be a
        saved run directory: traces are reconstructed from the saved log
        without re-running anything.

    repro top SCRIPT.vce [run options] [--snapshot] [--refresh S]
                         [--frames N] [--json PATH] [--prom PATH]
        Run a script and render live-telemetry frames: per-host load /
        queue / in-flight gauges with sparkline histories, task duration
        quantiles, scheduler and network totals, and active health
        events. --snapshot prints one frame after completion; otherwise
        a frame prints every --refresh simulated seconds. --json writes
        the shared metrics+health snapshot (the same schema the control
        plane's /api/metrics serves); --prom writes Prometheus text.

    repro serve [SCRIPT.vce | --workload NAME] [run options] [--port N]
                [--bind ADDR] [--pace R] [--slice S] [--failover]
                [--exit-when-done] [--max-wall S]
        Boot a cluster, start the live control plane (dashboard at /,
        SSE stream at /events, control API under /api/), and drive the
        simulation in slices while streaming entity events. --pace R
        advances R simulated seconds per wall second (0 = as fast as
        possible). --backend network runs the real-process quickstart
        instead (docs/NETWORK.md).

Cluster SPEC: ``ws:N`` for N workstations, or ``hetero:W,M,S`` for W
workstations + M MIMD + S SIMD machines (default ``hetero:6,2,1``).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable

from repro.core import VCEConfig, VirtualComputingEnvironment, heterogeneous_cluster, workstation_cluster
from repro.metrics import format_table
from repro.scheduler import (
    load_sorted_assignment,
    random_assignment,
    round_robin_assignment,
    utilization_first_assignment,
)
from repro.scheduler.execution_program import AppRun, RunState
from repro.script import interpret, parse_script
from repro.script.interp import Environment
from repro.util.errors import VCEError
from repro.vmpi import Compute

POLICIES = {
    "load": load_sorted_assignment,
    "random": random_assignment,
    "round-robin": round_robin_assignment,
    "utilization-first": utilization_first_assignment,
}


def _parse_cluster(spec: str):
    kind, _, rest = spec.partition(":")
    if kind == "ws":
        return workstation_cluster(int(rest or "6"))
    if kind == "hetero":
        parts = [int(x) for x in (rest or "6,2,1").split(",")]
        while len(parts) < 3:
            parts.append(0)
        return heterogeneous_cluster(parts[0], parts[1], parts[2])
    raise ValueError(f"unknown cluster spec {spec!r} (use ws:N or hetero:W,M,S)")


def _generic_program(work: float) -> Callable:
    def program(ctx):
        yield Compute(work)
        return f"{ctx.task}[{ctx.rank}] ok"

    return program


def _program_registry(tasks: list[str], default_work: float) -> dict[str, Callable]:
    from repro.workloads import weather_programs

    builtin = weather_programs()
    out: dict[str, Callable] = {}
    for task in tasks:
        out[task] = builtin.get(task, _generic_program(default_work))
    return out


def _print_run(run: AppRun, vce: VirtualComputingEnvironment, out) -> None:
    print(f"state: {run.state.value}", file=out)
    if run.error:
        print(f"error: {run.error}", file=out)
    if run.placement is not None:
        rows = [
            [f"{task}[{rank}]", machine]
            for (task, rank), machine in sorted(run.placement.assignments.items())
        ]
        print(format_table(["instance", "machine"], rows, title="placement"), file=out)
    if run.allocation_latency is not None:
        print(f"allocation latency: {run.allocation_latency:.4f}s", file=out)
    if run.app is not None and run.app.makespan is not None:
        print(f"makespan: {run.app.makespan:.2f}s", file=out)
    totals = vce.metrics().message_totals()
    print(
        f"network: {totals.get('sent', 0)} messages, "
        f"{totals.get('bytes', 0):,} bytes", file=out
    )


def cmd_describe(args: argparse.Namespace, out) -> int:
    text = open(args.script).read()
    description = interpret(
        parse_script(text),
        Environment(variables=dict(args.var or {})),
        name=args.script,
    )
    rows = [
        [
            m.task,
            m.path,
            "LOCAL" if m.machine_class is None else m.machine_class.value,
            f"{m.min_instances}..{m.max_instances}",
        ]
        for m in description.modules
    ]
    print(format_table(["module", "path", "target", "instances"], rows), file=out)
    if description.channels:
        crows = [[c.name, c.src_task, c.dst_task, c.volume] for c in description.channels]
        print(format_table(["channel", "from", "to", "volume"], crows), file=out)
    if description.priority:
        print(f"priority: {description.priority}", file=out)
    return 0


def _boot_vce(
    args: argparse.Namespace, **config_overrides
) -> VirtualComputingEnvironment:
    """Build and boot the simulated cluster a run-style subcommand asked for."""
    wan = None
    if args.cluster_file:
        from repro.core import load_cluster_file

        machines, wan = load_cluster_file(args.cluster_file, seed=args.seed)
    else:
        machines = _parse_cluster(args.cluster)
    return VirtualComputingEnvironment(
        machines,
        VCEConfig(
            seed=args.seed,
            anticipatory=args.anticipatory,
            wan_latency=wan,
            **config_overrides,
        ),
    ).boot()


def _launch_script(vce: VirtualComputingEnvironment, args: argparse.Namespace) -> AppRun:
    """Parse args.script and submit it (built-in or generic programs)."""
    text = open(args.script).read()
    description = vce.describe_script(text, variables=dict(args.var or {}))
    programs = _program_registry([m.task for m in description.modules], args.default_work)
    return vce.run_script(
        text,
        programs,
        works={m.task: args.default_work for m in description.modules},
        policy=POLICIES[args.policy],
        name=args.script,
    )


def cmd_run(args: argparse.Namespace, out) -> int:
    vce = _boot_vce(args)
    run = _launch_script(vce, args)
    vce.run_to_completion(run, timeout=args.timeout)
    _print_run(run, vce, out)
    _maybe_save_run(vce, args, out)
    if args.gantt:
        from repro.metrics import build_timeline, render_gantt

        spans = build_timeline(vce.sim.log, horizon=vce.sim.now)
        print("\ntimeline ('#' running, 's' suspended, 'x' down):", file=out)
        print(render_gantt(spans, vce.sim.now), file=out)
    return 0 if run.state is RunState.DONE else 1


def _load_run_dir_or_exit(path: str, out) -> "object | None":
    """Load a saved run directory; on truncation print a friendly error
    (no traceback) and return None so the caller can exit 1."""
    from repro.controlplane import TruncatedRunError, load_run_dir

    try:
        return load_run_dir(path)
    except TruncatedRunError as err:
        print(f"error: {err}", file=sys.stderr)
        print(
            "hint: the run directory looks incomplete — re-save it with "
            "--save-run or POST /api/snapshot on a live control plane",
            file=sys.stderr,
        )
        return None


def _maybe_save_run(vce: VirtualComputingEnvironment, args: argparse.Namespace, out) -> None:
    if getattr(args, "save_run", None):
        from repro.controlplane import save_run_dir

        save_run_dir(vce, args.save_run)
        print(f"saved run directory to {args.save_run}", file=out)


def _print_traces(log, makespans: dict, args: argparse.Namespace, out) -> None:
    from repro.trace import TraceAssembler, critical_path, export_chrome_trace

    traces = TraceAssembler(log).assemble()
    for trace in traces:
        path = critical_path(trace)
        if path is None:
            continue
        print(
            f"\ntrace {trace.trace_id}: app {path.app}, "
            f"makespan {path.makespan:.4f}s "
            f"(collector: {makespans.get(path.app, float('nan')):.4f}s)",
            file=out,
        )
        rows = [
            [seg.kind, f"{seg.start:.4f}", f"{seg.end:.4f}", f"{seg.duration:.4f}", seg.span]
            for seg in path.segments
        ]
        print(
            format_table(
                ["kind", "start", "end", "duration", "span"],
                rows,
                title="critical path",
            ),
            file=out,
        )
        totals = sorted(path.by_kind().items(), key=lambda kv: -kv[1])
        summary = ", ".join(f"{kind} {secs:.4f}s" for kind, secs in totals)
        print(f"attribution: {summary}", file=out)
        print(f"path total: {path.total:.4f}s (= makespan)", file=out)
        if path.allocation:
            alloc = ", ".join(
                f"{seg.kind} {seg.duration:.4f}s" for seg in path.allocation
            )
            print(f"allocation phase (pre-submit): {alloc}", file=out)
    if not traces:
        print("no traces recorded", file=out)
    if args.export:
        export_chrome_trace(traces, args.export)
        print(f"\nwrote Chrome trace-event JSON to {args.export}", file=out)


def cmd_trace(args: argparse.Namespace, out) -> int:
    if os.path.isdir(args.script):
        log = _load_run_dir_or_exit(args.script, out)
        if log is None:
            return 1
        from repro.controlplane import load_manifest

        manifest = load_manifest(args.script)
        print(
            f"run directory {args.script}: {manifest.get('records', len(log))} "
            f"records, t={manifest.get('time', 0.0)}", file=out,
        )
        _print_traces(log, {}, args, out)
        return 0

    vce = _boot_vce(args)
    run = _launch_script(vce, args)
    vce.run_to_completion(run, timeout=args.timeout)
    print(f"state: {run.state.value}", file=out)
    if run.error:
        print(f"error: {run.error}", file=out)
    _print_traces(vce.sim.log, vce.metrics().app_makespans(), args, out)
    _maybe_save_run(vce, args, out)
    return 0 if run.state is RunState.DONE else 1


def cmd_top(args: argparse.Namespace, out) -> int:
    from repro.telemetry import write_prometheus

    vce = _boot_vce(args)
    telemetry = vce.telemetry
    assert telemetry is not None  # VCEConfig.telemetry defaults on
    run = _launch_script(vce, args)
    terminal = (RunState.DONE, RunState.FAILED)
    if args.snapshot:
        vce.run_to_completion(run, timeout=args.timeout)
        print(telemetry.render(), file=out)
    else:
        deadline = vce.sim.now + args.timeout
        frame = 0
        while True:
            vce.sim.run(
                until=min(vce.sim.now + args.refresh, deadline),
                stop_when=lambda: run.state in terminal,
            )
            frame += 1
            print(telemetry.render(title=f"repro top [frame {frame}]"), file=out)
            print(file=out)
            if (
                run.state in terminal
                or vce.sim.now >= deadline
                or (args.frames and frame >= args.frames)
            ):
                break
    if args.json:
        # the shared metrics+health schema (watchdog rule states included,
        # host_down/stranded and all): identical to GET /api/metrics on
        # the control plane, so dashboards and scripts parse one format
        import json as _json

        with open(args.json, "w") as fh:
            _json.dump(telemetry.snapshot(), fh, indent=2, default=str)
            fh.write("\n")
        print(f"wrote JSON snapshot to {args.json}", file=out)
    if args.prom:
        write_prometheus(telemetry.registry, args.prom)
        print(f"wrote Prometheus text to {args.prom}", file=out)
    _maybe_save_run(vce, args, out)
    print(f"state: {run.state.value}", file=out)
    return 0 if run.state is RunState.DONE else 1


def _counter_by_label(registry, name: str) -> dict[str, float]:
    """label-value -> count for a labelled counter family ("" when bare)."""
    family = registry.get(name)
    if family is None:
        return {}
    return {
        ("/".join(values) if values else ""): child.value
        for values, child in family.samples()
    }


def cmd_chaos(args: argparse.Namespace, out) -> int:
    from repro.migration.failover import FailoverConfig

    if os.path.isdir(args.script):
        log = _load_run_dir_or_exit(args.script, out)
        if log is None:
            return 1
        from repro.controlplane import load_manifest

        manifest = load_manifest(args.script)
        print(
            f"run directory {args.script}: {manifest.get('records', len(log))} "
            f"records, t={manifest.get('time', 0.0)}", file=out,
        )
        counts = log.category_counts()
        injected = {
            cat.split(".", 1)[1]: n
            for cat, n in sorted(counts.items())
            if cat.startswith("fault.") and cat != "fault.schedule"
        }
        recovery = {
            cat.split(".", 1)[1]: n
            for cat, n in sorted(counts.items())
            if cat.startswith("recovery.")
        }
        injected_s = "  ".join(f"{k}={n}" for k, n in injected.items()) or "(none)"
        recovery_s = "  ".join(f"{k}={n}" for k, n in recovery.items()) or "(none)"
        print(f"injected faults: {injected_s}", file=out)
        print(f"recovery actions: {recovery_s}", file=out)
        return 0

    vce = _boot_vce(args, failover=FailoverConfig())
    fault_seed = args.seed if args.fault_seed is None else args.fault_seed
    controller = vce.chaos(args.schedule, seed=fault_seed)
    run = _launch_script(vce, args)
    vce.run_to_completion(run, timeout=args.timeout)
    # drain any trailing fault windows so close events land in the log
    _print_run(run, vce, out)

    assert vce.telemetry is not None  # VCEConfig.telemetry defaults on
    registry = vce.telemetry.registry
    injected = _counter_by_label(registry, "faults_injected_total")
    recovery = _counter_by_label(registry, "recovery_actions_total")
    print(
        f"\nschedule: {args.schedule} (fault seed {fault_seed}, "
        f"{len(controller.schedule or [])} actions)",
        file=out,
    )
    injected_s = (
        "  ".join(f"{k}={int(v)}" for k, v in sorted(injected.items())) or "(none)"
    )
    recovery_s = (
        "  ".join(f"{k}={int(v)}" for k, v in sorted(recovery.items())) or "(none)"
    )
    print(f"injected faults: {injected_s}", file=out)
    print(f"recovery actions: {recovery_s}", file=out)
    net = vce.network
    print(
        f"transport: {net.retransmissions} retransmits, "
        f"{net.duplicates_dropped} duplicates absorbed, "
        f"{net.messages_lost} abandoned",
        file=out,
    )
    if vce.failover is not None:
        stranded = vce.failover.stranded()
        if stranded:
            print(f"still stranded: {stranded}", file=out)
    _maybe_save_run(vce, args, out)
    return 0 if run.state is RunState.DONE else 1


def _lint_graph_target(target: str, compilation, variables, default_work: float):
    """Build the task graph a lint TARGET describes and verify it."""
    from repro.analysis import verify_graph
    from repro.core import materialize_description
    from repro.script.interp import Environment as ScriptEnvironment

    if target.endswith(".py"):
        import importlib.util

        spec = importlib.util.spec_from_file_location(f"_lint_{abs(hash(target))}", target)
        if spec is None or spec.loader is None:
            raise VCEError(f"cannot import graph module {target!r}")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        builder = getattr(module, "build_graph", None)
        if not callable(builder):
            raise VCEError(f"{target!r} defines no build_graph() function")
        graph = builder()
    else:
        text = open(target).read()
        description = interpret(
            parse_script(text),
            ScriptEnvironment(compilation.database.class_counts(), variables),
            name=target,
        )
        programs = {m.task: _generic_program(default_work) for m in description.modules}
        graph, _, _ = materialize_description(description, programs)
    report = verify_graph(graph, compilation=compilation)
    report.subject = f"{target} (graph {graph.name!r})"
    return report


def cmd_lint(args: argparse.Namespace, out) -> int:
    import json

    if args.hb:
        from repro.analysis import check_records
        from repro.analysis.report import AnalysisReport

        reports = []
        for target in args.targets:
            log = _load_run_dir_or_exit(target, out)
            if log is None:
                return 1
            report = AnalysisReport(subject=f"{target} (protocol conformance)")
            report.extend(check_records(list(log)))
            reports.append(report)
    elif args.det:
        from repro.analysis import lint_paths

        reports = [lint_paths(args.targets, baseline=args.baseline)]
    else:
        from repro.compilation.manager import CompilationManager
        from repro.machines.database import MachineDatabase

        if args.cluster_file:
            from repro.core import load_cluster_file

            machines, _ = load_cluster_file(args.cluster_file)
        else:
            machines = _parse_cluster(args.cluster)
        database = MachineDatabase()
        for machine in machines:
            database.register(machine)
        compilation = CompilationManager(database)
        variables = dict(args.var or {})
        reports = [
            _lint_graph_target(target, compilation, variables, args.default_work)
            for target in args.targets
        ]
    if args.json:
        print(json.dumps([r.to_dict() for r in reports], indent=2), file=out)
    else:
        print("\n\n".join(r.render_text() for r in reports), file=out)
    return max(r.exit_code(strict=args.strict) for r in reports)


def cmd_sanitize(args: argparse.Namespace, out) -> int:
    import json as _json
    from pathlib import Path

    import repro
    from repro.analysis.protocol import check_protocol_sources
    from repro.analysis.report import AnalysisReport
    from repro.analysis.sanitize import SCENARIOS, sanitize_scenario

    names = args.scenarios or sorted(SCENARIOS)
    unknown = [n for n in names if n not in SCENARIOS]
    if unknown:
        print(
            f"error: unknown scenario(s) {', '.join(unknown)} "
            f"(expected: {', '.join(sorted(SCENARIOS))})",
            file=sys.stderr,
        )
        return 2
    results = [
        sanitize_scenario(
            name,
            seed=args.seed,
            shuffles=args.shuffles,
            baseline=args.baseline,
        )
        for name in names
    ]
    combined = AnalysisReport(subject=f"sanitize (seed {args.seed})")
    static_findings = []
    if not args.no_static:
        static_findings = check_protocol_sources(Path(repro.__file__).parent)
        combined.extend(static_findings)
    for result in results:
        combined.merge(result.report)
    for result in results:
        shuffled = len(result.shuffle_runs)
        diverged = sum(1 for r in result.shuffle_runs if r["diverged"])
        print(
            f"{result.scenario}: {result.classification} — "
            f"{result.races} race(s), {result.suppressed} suppressed, "
            f"{diverged}/{shuffled} shuffles diverged",
            file=out,
        )
    print(combined.render_text(), file=out)
    if args.json:
        payload = {
            "seed": args.seed,
            "shuffles": args.shuffles,
            "scenarios": [r.to_dict() for r in results],
            "static": [f.to_dict() for f in static_findings],
            "errors": len(combined.errors),
            "warnings": len(combined.warnings),
        }
        Path(args.json).write_text(_json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.json}", file=out)
    return combined.exit_code(strict=True)


def cmd_demo(args: argparse.Namespace, out) -> int:
    vce = VirtualComputingEnvironment(
        heterogeneous_cluster(), VCEConfig(seed=args.seed)
    ).boot()
    if args.workload == "weather":
        from repro.workloads import WEATHER_SCRIPT, weather_programs

        run = vce.run_script(WEATHER_SCRIPT, weather_programs(), name="weather")
    elif args.workload == "montecarlo":
        from repro.workloads import build_monte_carlo_graph
        from repro.machines import MachineClass

        graph = build_monte_carlo_graph(workers=4)
        run = vce.submit(graph, class_map={"worker": MachineClass.WORKSTATION})
    elif args.workload == "stencil":
        from repro.workloads import build_stencil_graph
        from repro.machines import MachineClass

        graph = build_stencil_graph(ranks=4, cells=64, iterations=10)
        run = vce.submit(graph, class_map={"grid": MachineClass.WORKSTATION})
    else:  # pipeline
        from repro.workloads import build_pipeline_graph

        run = vce.submit(build_pipeline_graph(stages=4))
    vce.run_to_completion(run, timeout=args.timeout)
    _print_run(run, vce, out)
    if run.app is not None and run.state is RunState.DONE:
        for node in run.app.graph:
            results = run.app.results(node.name)
            preview = str(results[0])
            if len(preview) > 60:
                preview = preview[:57] + "..."
            print(f"result {node.name}: {preview}", file=out)
    return 0 if run.state is RunState.DONE else 1


def cmd_soak(args: argparse.Namespace, out) -> int:
    import json as _json
    from pathlib import Path

    from repro.soak import SoakConfig, run_soak

    kw: dict = dict(
        tenants=args.tenants,
        apps=args.apps,
        machines=args.machines,
        fanout=args.fanout,
        seed=args.seed,
        chaos=args.chaos,
    )
    if args.arrival_span is not None:
        kw["arrival_span"] = args.arrival_span
    if args.instances is not None:
        kw["instances"] = args.instances
    if args.work is not None:
        kw["work"] = args.work
    cfg = SoakConfig(**kw)
    vce, driver, report = run_soak(cfg)
    tenants = report.tenants
    held_waits = report.max_admission_wait
    rows = [
        [
            name,
            f"{t['quota']}",
            f"{t['priority']:+.0f}",
            f"{t['apps_admitted']}/{t['apps_submitted']}",
            f"{t['apps_completed']}",
            f"{t['peak_admitted']:,}",
            f"{t['denials']}",
        ]
        for name, t in sorted(tenants.items())[: args.top]
    ]
    print(
        format_table(
            ["tenant", "quota", "prio", "admitted", "done", "peak inst", "held"],
            rows,
            title=(
                f"soak: {report.config_tenants} tenants, "
                f"{report.submitted} apps on {report.machines} machines "
                f"(fanout {report.fanout})"
            ),
        ),
        file=out,
    )
    print(
        f"completed {report.completed}/{report.admitted} admitted "
        f"({report.held} held at quota, max wait {held_waits:.0f}s), "
        f"peak {report.peak_live_instances:,} live / "
        f"{report.peak_admitted_instances:,} admitted instances",
        file=out,
    )
    print(
        f"bidding: {report.requests_led} rounds, "
        f"{report.bid_fanout_per_round:.1f} members polled/round "
        f"({report.delegations} delegations, {report.escalations} escalations), "
        f"sched event share {report.sched_event_share * 100:.1f}%",
        file=out,
    )
    print(
        f"makespan {report.makespan:,.0f}s sim, {report.events:,} log records, "
        f"{report.net_messages:,} messages, digest {report.digest[:16]}",
        file=out,
    )
    if args.json:
        Path(args.json).write_text(_json.dumps(report.to_dict(), indent=2) + "\n")
        print(f"wrote {args.json}", file=out)
    ok = report.failed == 0 and report.completed == report.admitted
    return 0 if ok else 1


def cmd_serve(args: argparse.Namespace, out) -> int:
    import asyncio

    from repro.controlplane import ControlPlaneServer, ServeSession
    from repro.netsim.pacing import WallClockPacer

    if args.backend == "network":
        return _cmd_serve_network(args, out)
    overrides: dict = {}
    if args.failover:
        from repro.migration.failover import FailoverConfig

        overrides.update(failover=FailoverConfig())
    vce = _boot_vce(args, **overrides)
    session = ServeSession(
        vce, slice_seconds=args.slice, pacer=WallClockPacer(args.pace)
    )
    if args.script:
        session.track(_launch_script(vce, args))
    elif args.workload:
        session.submit(
            args.workload,
            layers=args.layers,
            width=args.width,
            ranks=args.ranks,
            iterations=args.iterations,
        )
    server = ControlPlaneServer(session, host=args.bind, port=args.port)

    async def _main() -> None:
        await server.start()
        print(
            f"control plane on http://{args.bind}:{server.port}/ "
            f"(SSE /events, API /api/) — "
            f"backend {args.backend}, pace {args.pace or 'free-run'}",
            file=out,
            flush=True,
        )
        await server.run(
            exit_when_done=args.exit_when_done, max_wall=args.max_wall
        )

    asyncio.run(_main())
    stats = session.hub.stats()
    print(
        f"stopped at t={vce.sim.now:.1f}s after {session.slices} slices; "
        f"hub published {stats['published']} events",
        file=out,
    )
    _maybe_save_run(vce, args, out)
    return 0


def _cmd_serve_network(args: argparse.Namespace, out) -> int:
    """``repro serve --backend network``: the 3-process parity quickstart."""
    from repro.netexec.frames import WorkloadSpec
    from repro.netexec.quickstart import default_workload, run_quickstart

    if args.workload not in (None, "randomdag"):
        print(
            f"--backend network runs the randomdag quickstart; "
            f"--workload {args.workload} is not supported (see docs/NETWORK.md)",
            file=out,
        )
        return 2
    # one instance per machine at allocation time: size the chain to the
    # daemon count so the sim reference stays allocatable (docs/NETWORK.md)
    workload = WorkloadSpec(
        kind="randomdag",
        kwargs=(
            ("layers", min(args.layers, args.processes)), ("width", 1),
            ("seed", args.seed), ("min_work", 1.0), ("max_work", 4.0),
        ),
    ) if args.workload else default_workload(args.seed, args.processes)
    timeout = args.max_wall if args.max_wall else 120.0
    print(
        f"network backend: {args.processes} daemon processes on localhost, "
        f"rate {args.rate} sim-s/wall-s",
        file=out,
        flush=True,
    )
    report = run_quickstart(
        machines=args.processes,
        seed=args.seed,
        rate=args.rate,
        timeout=timeout,
        workload=workload,
    )
    print(report.render(), file=out)
    return 0 if report.ok else 1


def _kv(pair: str) -> tuple[str, int]:
    key, _, value = pair.partition("=")
    return key, int(value)


def _int_pair(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition(",")
    return int(lo), int(hi)


def _float_pair(text: str) -> tuple[float, float]:
    lo, _, hi = text.partition(",")
    return float(lo), float(hi)


def _add_run_options(parser: argparse.ArgumentParser, script_optional: bool = False) -> None:
    if script_optional:
        parser.add_argument("script", nargs="?", default=None)
    else:
        parser.add_argument("script")
    parser.add_argument("--cluster", default="hetero:6,2,1")
    parser.add_argument(
        "--cluster-file",
        help="JSON cluster specification (see repro.core.spec); overrides --cluster",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--default-work", type=float, default=10.0)
    parser.add_argument("--anticipatory", action="store_true")
    parser.add_argument("--policy", choices=sorted(POLICIES), default="load")
    parser.add_argument("--timeout", type=float, default=10_000.0)
    parser.add_argument("--var", action="append", type=_kv, metavar="NAME=INT")
    parser.add_argument(
        "--save-run", metavar="DIR",
        help="save the event log + metrics as a run directory afterwards",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="The Virtual Computing Environment (HPDC 1994 reproduction)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    describe = sub.add_parser("describe", help="parse and resolve a VCE script")
    describe.add_argument("script")
    describe.add_argument("--var", action="append", type=_kv, metavar="NAME=INT")
    describe.set_defaults(fn=cmd_describe)

    run = sub.add_parser("run", help="run a VCE script on a simulated cluster")
    _add_run_options(run)
    run.add_argument(
        "--gantt", action="store_true", help="print a per-host ASCII timeline"
    )
    run.set_defaults(fn=cmd_run)

    trace = sub.add_parser(
        "trace", help="run a script and print its causal critical path"
    )
    _add_run_options(trace)
    trace.add_argument(
        "--export", metavar="PATH", help="write Chrome trace-event JSON to PATH"
    )
    trace.set_defaults(fn=cmd_trace)

    top = sub.add_parser(
        "top", help="run a script and show live telemetry frames"
    )
    _add_run_options(top)
    top.add_argument(
        "--snapshot",
        action="store_true",
        help="run to completion and print one final frame",
    )
    top.add_argument(
        "--refresh",
        type=float,
        default=5.0,
        help="simulated seconds between frames (interactive mode)",
    )
    top.add_argument(
        "--frames", type=int, default=0, help="stop after N frames (0 = until done)"
    )
    top.add_argument("--json", metavar="PATH", help="write a JSON metrics snapshot")
    top.add_argument(
        "--prom", metavar="PATH", help="write Prometheus text exposition"
    )
    top.set_defaults(fn=cmd_top)

    chaos = sub.add_parser(
        "chaos", help="run a script under a named fault schedule"
    )
    _add_run_options(chaos)
    from repro.faults.schedule import SCHEDULES

    chaos.add_argument(
        "--schedule",
        choices=sorted(SCHEDULES),
        default="chaos-mix",
        help="named fault schedule to inject (default: chaos-mix)",
    )
    chaos.add_argument(
        "--fault-seed",
        type=int,
        default=None,
        help="seed for schedule randomization (default: --seed)",
    )
    chaos.set_defaults(fn=cmd_chaos)

    lint = sub.add_parser(
        "lint", help="statically verify task graphs / lint sources for determinism"
    )
    lint.add_argument(
        "targets", nargs="+",
        help=".vce scripts or build_graph() .py files; with --det, "
             "Python files/directories",
    )
    lint.add_argument(
        "--det", action="store_true",
        help="run the determinism linter over Python sources instead of "
             "verifying task graphs",
    )
    lint.add_argument(
        "--hb", action="store_true",
        help="treat targets as saved run directories and replay them "
             "through the protocol conformance FSMs (P001-P003)",
    )
    lint.add_argument("--json", action="store_true", help="emit findings as JSON")
    lint.add_argument(
        "--strict", action="store_true", help="exit non-zero on warnings too"
    )
    lint.add_argument(
        "--baseline", metavar="PATH",
        help="detlint baseline file of grandfathered findings (--det only)",
    )
    lint.add_argument("--cluster", default="hetero:6,2,1")
    lint.add_argument(
        "--cluster-file",
        help="JSON cluster specification (see repro.core.spec); overrides --cluster",
    )
    lint.add_argument("--default-work", type=float, default=10.0)
    lint.add_argument("--var", action="append", type=_kv, metavar="NAME=INT")
    lint.set_defaults(fn=cmd_lint)

    sanitize = sub.add_parser(
        "sanitize",
        help="happens-before race sanitizer with tie-shuffle confirmation",
    )
    sanitize.add_argument(
        "scenarios", nargs="*",
        help="scenarios to sanitize (default: all; see "
             "repro.analysis.sanitize.SCENARIOS)",
    )
    sanitize.add_argument("--seed", type=int, default=3)
    sanitize.add_argument(
        "--shuffles", type=int, default=4,
        help="tie-shuffle confirmation reruns per scenario (default 4)",
    )
    sanitize.add_argument(
        "--baseline", metavar="PATH",
        help="baseline file of grandfathered races (detlint format: "
             "'RULE path[:line]' per line)",
    )
    sanitize.add_argument(
        "--json", metavar="PATH", help="write the full result set as JSON"
    )
    sanitize.add_argument(
        "--no-static", action="store_true",
        help="skip the static FSM/code drift check (P005)",
    )
    sanitize.set_defaults(fn=cmd_sanitize)

    soak = sub.add_parser(
        "soak", help="multi-tenant soak: tenant populations load the scheduler"
    )
    soak.add_argument("--tenants", type=int, default=50, help="tenant populations")
    soak.add_argument("--apps", type=int, default=2000, help="total applications")
    soak.add_argument("--machines", type=int, default=256, help="workstation count")
    soak.add_argument(
        "--fanout", type=int, default=8,
        help="sub-leader cells (1 = the paper's flat bidding)",
    )
    soak.add_argument("--seed", type=int, default=0)
    soak.add_argument(
        "--arrival-span", type=float, default=None, metavar="SECONDS",
        help="compress arrivals into this window (default 200)",
    )
    soak.add_argument(
        "--instances", type=_int_pair, default=None, metavar="LO,HI",
        help="per-app instance range (default 96,192)",
    )
    soak.add_argument(
        "--work", type=_float_pair, default=None, metavar="LO,HI",
        help="per-instance compute seconds range (default 8,16)",
    )
    from repro.faults.schedule import SCHEDULES as _SCHEDULES

    soak.add_argument(
        "--chaos", choices=sorted(_SCHEDULES), default=None,
        help="run under a named fault schedule (enables failover)",
    )
    soak.add_argument(
        "--top", type=int, default=12, help="tenant rows to print (default 12)"
    )
    soak.add_argument("--json", metavar="PATH", help="write the full report as JSON")
    soak.set_defaults(fn=cmd_soak)

    serve = sub.add_parser(
        "serve", help="start the live control plane (dashboard + SSE + API)"
    )
    _add_run_options(serve, script_optional=True)
    from repro.controlplane.driver import WORKLOAD_NAMES

    serve.add_argument(
        "--workload", choices=sorted(WORKLOAD_NAMES), default=None,
        help="built-in workload to submit when no SCRIPT is given",
    )
    serve.add_argument("--layers", type=int, default=8, help="randomdag layers")
    serve.add_argument("--width", type=int, default=8, help="randomdag width")
    serve.add_argument("--ranks", type=int, default=4, help="stencil ranks")
    serve.add_argument(
        "--iterations", type=int, default=8, help="stencil iterations"
    )
    serve.add_argument("--bind", default="127.0.0.1", help="listen address")
    serve.add_argument(
        "--port", type=int, default=8421, help="listen port (0 = pick free)"
    )
    serve.add_argument(
        "--pace", type=float, default=2.0,
        help="simulated seconds per wall second (0 = as fast as possible)",
    )
    serve.add_argument(
        "--slice", type=float, default=2.0,
        help="simulated seconds advanced per scheduling slice",
    )
    serve.add_argument(
        "--failover", action="store_true",
        help="enable failover (as repro chaos does)",
    )
    serve.add_argument(
        "--exit-when-done", action="store_true",
        help="stop once every tracked application completes (headless/CI mode)",
    )
    serve.add_argument(
        "--max-wall", type=float, default=None,
        help="hard wall-clock runtime cap in seconds",
    )
    serve.add_argument(
        "--backend", choices=["serial", "network"], default="serial",
        help="simulation backend; 'network' runs the real-process quickstart "
             "(daemons as asyncio processes on localhost, docs/NETWORK.md)",
    )
    serve.add_argument(
        "--processes", type=int, default=3,
        help="daemon process count for --backend network (default 3)",
    )
    serve.add_argument(
        "--rate", type=float, default=10.0,
        help="simulated seconds per wall second for --backend network",
    )
    serve.set_defaults(fn=cmd_serve)

    demo = sub.add_parser("demo", help="run a built-in workload")
    demo.add_argument(
        "workload", choices=["weather", "montecarlo", "stencil", "pipeline"]
    )
    demo.add_argument("--seed", type=int, default=0)
    demo.add_argument("--timeout", type=float, default=10_000.0)
    demo.set_defaults(fn=cmd_demo)
    return parser


def main(argv: list[str] | None = None, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args, out)
    except (VCEError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
