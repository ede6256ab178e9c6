"""The 3-process localhost demo behind ``repro serve --backend network``.

Runs one randomdag workload twice — once inside the serial netsim kernel,
once across N real daemon processes on localhost — and reports the
determinism contract's testable half: **same DONE task set, same
per-task results digest** (event interleavings are allowed to differ;
see docs/NETWORK.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.cluster import workstation_cluster
from repro.core.config import VCEConfig
from repro.netexec.frames import WorkloadSpec
from repro.netexec.supervisor import (
    NetworkVCE,
    sim_done_set,
    sim_results_digest,
)


@dataclass
class QuickstartReport:
    """Outcome of one sim-vs-network parity run."""

    workload: WorkloadSpec
    machines: int
    sim_done: set
    net_done: set
    sim_digest: str
    net_digest: str
    net_events: int
    protocol_errors: int
    orphans: list[int]

    @property
    def outcomes_match(self) -> bool:
        return self.sim_done == self.net_done and self.sim_digest == self.net_digest

    @property
    def ok(self) -> bool:
        return self.outcomes_match and self.protocol_errors == 0 and not self.orphans

    def render(self) -> str:
        lines = [
            f"workload      {self.workload.kind} {dict(self.workload.kwargs)}",
            f"processes     {self.machines} daemons + 1 supervisor",
            f"DONE set      sim={len(self.sim_done)} net={len(self.net_done)} "
            f"{'MATCH' if self.sim_done == self.net_done else 'MISMATCH'}",
            f"results       sim={self.sim_digest[:16]} net={self.net_digest[:16]} "
            f"{'MATCH' if self.sim_digest == self.net_digest else 'MISMATCH'}",
            f"net events    {self.net_events} "
            f"(protocol errors: {self.protocol_errors})",
            f"orphans       {self.orphans or 'none'}",
            f"verdict       {'OK' if self.ok else 'FAIL'}",
        ]
        return "\n".join(lines)


def default_workload(seed: int = 7, machines: int = 3) -> WorkloadSpec:
    """A small randomdag every demo and smoke test shares.

    The allocation model (sim and network alike) places one instance per
    machine, so the graph is sized ``width=1`` — a ``layers``-deep chain,
    one task per daemon — to keep the sim reference allocatable on the
    same 3-machine cluster the network run uses.
    """
    return WorkloadSpec(
        kind="randomdag",
        kwargs=(
            ("layers", machines), ("width", 1), ("seed", seed),
            ("min_work", 1.0), ("max_work", 4.0),
        ),
    )


def run_sim_reference(
    workload: WorkloadSpec, machines: int, seed: int
) -> tuple[set, str]:
    """The serial-backend half of the parity check."""
    from repro.core.environment import VirtualComputingEnvironment
    from repro.netexec.daemonhost import build_workload

    vce = VirtualComputingEnvironment(
        workstation_cluster(machines), VCEConfig(seed=seed)
    )
    vce.boot()
    run = vce.submit(build_workload(workload))
    vce.run_to_completion(run)
    return sim_done_set(run), sim_results_digest(run)


def run_network(
    workload: WorkloadSpec,
    machines: int,
    seed: int,
    rate: float,
    timeout: float,
) -> tuple[Any, NetworkVCE]:
    """The real-process half; returns (app, vce) for inspection."""
    vce = NetworkVCE(
        workstation_cluster(machines),
        VCEConfig(seed=seed, backend="network"),
        rate=rate,
    )
    app = vce.run_workload(workload, timeout=timeout)
    return app, vce


def run_quickstart(
    machines: int = 3,
    seed: int = 7,
    rate: float = 10.0,
    timeout: float = 120.0,
    workload: WorkloadSpec | None = None,
) -> QuickstartReport:
    """Run both halves and compare (the acceptance-criteria check)."""
    from repro.analysis.protocol import check_records
    from repro.analysis.report import Severity

    workload = workload or default_workload(seed, machines)
    sim_done, sim_digest = run_sim_reference(workload, machines, seed)
    app, vce = run_network(workload, machines, seed, rate, timeout)
    findings = check_records(vce.sim.log.records())
    errors = sum(1 for f in findings if f.severity is Severity.ERROR)
    return QuickstartReport(
        workload=workload,
        machines=machines,
        sim_done=sim_done,
        net_done=app.done_set(),
        sim_digest=sim_digest,
        net_digest=app.results_digest(),
        net_events=len(vce.sim.log.records()),
        protocol_errors=errors,
        orphans=vce.orphan_pids(),
    )


def main(machines: int = 3, seed: int = 7, rate: float = 10.0) -> int:
    report = run_quickstart(machines=machines, seed=seed, rate=rate)
    print(report.render())
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
