"""Output checks, run on every repetition.

The oracle is TSIA's: a task's result is a function of its input items
only, so whatever schedule, fault or transport ran it, a DONE instance must
hold the result its graph node defines (for the generated workloads, the
node's ``work``), and must have committed exactly once.

Functions that check single operations return how many passed and append
one message per failure to *problems*; functions that check a whole
repetition append to *errors*, and any entry there fails every operation of
the repetition.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from typing import Any

import numpy as np

from repro.analysis.protocol import check_records
from repro.analysis.report import Severity
from repro.runtime.instance import InstanceState
from repro.workloads import heat_reference


def commit_counts(log: Any) -> Counter:
    """(app, task, rank) -> commits: ``task.done`` records minus the exits
    the runtime refused as stale (a superseded allocation epoch)."""
    commits: Counter = Counter()
    for record in log.records(category="task.done"):
        commits[(record.get("app"), record.get("task"), record.get("rank"))] += 1
    for record in log.records(category="runtime.stale_commit"):
        commits[(record.source, record.get("task"), record.get("rank"))] -= 1
    return commits


def instance_results(app: Any, commits: Counter, problems: list[str]) -> int:
    """Instances of *app* that are DONE exactly once with the result their
    node defines."""
    good = 0
    for (task, rank), record in app.records.items():
        expected = app.graph.task(task).work
        n = commits[(app.id, task, rank)]
        if record.state is not InstanceState.DONE:
            problems.append(f"{app.id} {task}[{rank}] is {record.state.value}")
        elif n != 1:
            problems.append(f"{app.id} {task}[{rank}] committed {n} times")
        elif record.result != expected:
            problems.append(
                f"{app.id} {task}[{rank}] result {record.result!r} != {expected!r}"
            )
        else:
            good += 1
    return good


def stencil_ranks(
    app: Any, cells: int, iterations: int, commits: Counter, problems: list[str]
) -> int:
    """Ranks whose result matches the single-owner reference: rank 0 holds
    the gathered grid, every other rank the sum of its own strip."""
    reference = heat_reference(cells, iterations)
    ranks = len(app.records)
    strip = cells // ranks
    good = 0
    for (task, rank), record in sorted(app.records.items()):
        if record.state is not InstanceState.DONE:
            problems.append(f"rank {rank} is {record.state.value}")
        elif commits[(app.id, task, rank)] != 1:
            problems.append(f"rank {rank} committed {commits[(app.id, task, rank)]} times")
        elif rank == 0 and not (
            np.shape(record.result) == reference.shape
            and np.allclose(record.result, reference)
        ):
            problems.append("rank 0 grid differs from heat_reference")
        elif rank != 0 and not np.isclose(
            record.result, reference[rank * strip : (rank + 1) * strip].sum()
        ):
            problems.append(f"rank {rank} strip sum differs from heat_reference")
        else:
            good += 1
    return good


def soak_report(report: Any, tenants: Any, errors: list[str]) -> None:
    """Every arrival admitted and completed, none failed, quotas held."""
    if not (
        report.completed == report.admitted == report.submitted == report.config_apps
    ):
        errors.append(
            f"soak did not drain: {report.config_apps} apps, {report.submitted} "
            f"submitted, {report.admitted} admitted, {report.completed} completed"
        )
    if report.failed:
        errors.append(f"{report.failed} applications failed")
    for name, row in tenants.snapshot().items():
        if row["peak_admitted"] > row["quota"]:
            errors.append(
                f"tenant {name} peaked at {row['peak_admitted']} > quota {row['quota']}"
            )


def network_digest(finished: list[tuple[Any, Any]]) -> str:
    """One digest over every application's per-task results digest."""
    h = hashlib.sha256()
    for _spec, app in finished:
        h.update(app.results_digest().encode())
    return h.hexdigest()


def serial_reference(specs: list[Any], seed: int) -> list[Any]:
    """Run *specs* one after another on the serial simulator."""
    from repro.core import VCEConfig, VirtualComputingEnvironment, workstation_cluster
    from repro.netexec.daemonhost import build_workload

    vce = VirtualComputingEnvironment(
        workstation_cluster(2), VCEConfig(seed=seed)
    ).boot()
    runs = []
    for spec in specs:
        run = vce.submit(build_workload(spec))
        vce.run_to_completion(run)
        runs.append(run)
    return runs


def network_results(
    finished: list[tuple[Any, Any]], seed: int, problems: list[str]
) -> int:
    """Instances the network backend finished with the result their node
    defines, in applications whose results digest equals the serial
    simulator's for the same WorkloadSpec."""
    from repro.netexec.supervisor import sim_results_digest

    references = serial_reference([spec for spec, _app in finished], seed)
    good = 0
    for (_spec, app), reference in zip(finished, references):
        if app.failed or not app.done:
            problems.append(f"{app.id} did not finish")
        elif app.results_digest() != sim_results_digest(reference):
            problems.append(f"{app.id} results differ from the serial simulator")
        else:
            graph = reference.app.graph
            for (task, rank), record in app.records.items():
                if record.result == graph.task(task).work:
                    good += 1
                else:
                    problems.append(f"{app.id} {task}[{rank}] result {record.result!r}")
    return good


def network_protocol(vce: Any, errors: list[str]) -> None:
    """No protocol-FSM violation in the merged log, no daemon left behind."""
    findings = check_records(vce.sim.log.records())
    bad = [f for f in findings if f.severity is Severity.ERROR]
    if bad:
        errors.append(f"{len(bad)} protocol errors, first: {bad[0].format()}")
    orphans = vce.orphan_pids()
    if orphans:
        errors.append(f"daemon processes still running: {orphans}")
