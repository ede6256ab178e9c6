"""Tie-shuffle confirmation harness — `repro sanitize`.

The HB sanitizer (:mod:`repro.analysis.hb`) reports *candidate* races:
conflicting shared-state accesses unordered by happens-before.  Some of
those are commutative by design (two counters incremented in either order).
This harness separates the two classes empirically:

1. run a scenario with the sanitizer attached and the historical tie order
   (``tie_shuffle=0``) — collect candidate races, live protocol-FSM
   findings, and the run's *outcome digest*;
2. re-run it several times with a seeded permutation of same-timestamp
   ties (:meth:`Simulator.set_tie_shuffle` — FIFO among events scheduled
   by the same parent is preserved, so the ``call_soon`` contract holds);
3. if any shuffled run crashes or produces a different outcome digest, the
   run's observable behaviour depends on how the kernel happened to order
   logically-concurrent events — every unsuppressed candidate race is
   classified **real** (ERROR); otherwise **benign** (WARNING).

The outcome digest deliberately covers only durable results (task
lifecycle, allocations, dispatches, fixture finals) with record *times*
dropped: a tie permutation legitimately reorders the log and re-deals
jittered retry draws without changing what the run computed, and those
artifacts must not convict a benign race.

Scenarios mirror the ``randomdag_seed3`` and ``chaosmix_seed3`` rows of the
cost ledger (``tests/test_cost_ledger.py``) plus ``injected-race``, a fixture
with a deliberately order-dependent pair of same-timestamp events that the
sanitizer must detect and this harness must classify digest-diverging —
the end-to-end self-test CI runs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Callable, Iterable

from repro.analysis.hb import HBTracker
from repro.analysis.protocol import DEFAULT_FSMS, ProtocolFSM, check_records
from repro.analysis.report import AnalysisReport, Finding, Severity

#: Categories whose records count as durable run outcomes (prefix match).
OUTCOME_PREFIXES = (
    "task.",
    "sched.alloc",
    "runtime.dispatch",
    "race.",
    "app.",
)

#: Payload keys that are durable results.  Everything else — times,
#: makespans, latencies, retry/attempt counters, trace span numbering
#: (span ids and ``after`` tuples are minted in dispatch order) — is an
#: artifact of *when* events fired and legitimately varies under a tie
#: permutation without the run having computed anything different.
DURABLE_KEYS = frozenset({
    "task", "rank", "host", "incarnation", "app", "epoch", "state",
    "result", "x", "count", "src", "dst", "restored", "req_id", "machine",
})


def _outcome_line(record: Any) -> str:
    data = record.data  # built on read: once per record
    durable = ",".join(f"{k}={data[k]!r}" for k in sorted(data) if k in DURABLE_KEYS)
    return f"{record.category}|{record.source}|{durable}"


def outcome_digest(log: Iterable) -> str:
    """SHA-256 over the *sorted* canonical outcome records of *log*.

    Order-independent (a multiset digest), time-free, and restricted to
    :data:`DURABLE_KEYS`, so two runs that compute the same results
    through differently-ordered event schedules digest identically, while
    a changed placement, extra incarnation, missing completion, or
    different final value diverges.
    """
    lines = sorted(
        _outcome_line(record)
        for record in log
        if record.category.startswith(OUTCOME_PREFIXES)
    )
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode())
        digest.update(b"\n")
    return digest.hexdigest()


def shuffle_salt(seed: int, k: int) -> int:
    """The k-th deterministic tie-shuffle salt for *seed* (always > 0)."""
    return (((seed + 1) * 0x9E3779B9 + (k + 1) * 0x85EBCA6B) & 0x7FFFFFFF) | 1


# -- scenarios --------------------------------------------------------------


@dataclass(slots=True)
class ScenarioRun:
    """What one scenario execution hands back to the harness."""

    log: object  # EventLog
    hb: HBTracker | None = None
    protocol_findings: list[Finding] | None = None


def _vce_scenario(build: Callable, seed: int, hb_sanitizer: bool,
                  tie_shuffle: int) -> ScenarioRun:
    vce = build(seed, hb_sanitizer, tie_shuffle)
    protocol = (
        vce.protocol_monitor.findings() if vce.protocol_monitor is not None else None
    )
    return ScenarioRun(log=vce.sim.log, hb=vce.hb_tracker, protocol_findings=protocol)


def _randomdag(seed: int, hb_sanitizer: bool, tie_shuffle: int):
    from repro.core import VCEConfig, VirtualComputingEnvironment, workstation_cluster
    from repro.workloads import build_random_dag

    graph = build_random_dag(layers=8, width=8, seed=seed)
    vce = VirtualComputingEnvironment(
        workstation_cluster(4),
        VCEConfig(seed=seed, hb_sanitizer=hb_sanitizer, tie_shuffle=tie_shuffle),
    ).boot()
    run = vce.submit(graph, class_map={node.name: None for node in graph})
    vce.run_to_completion(run, timeout=100_000.0)
    from repro.scheduler.execution_program import RunState

    if run.state is not RunState.DONE:
        raise RuntimeError(f"randomdag did not complete: {run.error}")
    return vce


def _chaos_mix(seed: int, hb_sanitizer: bool, tie_shuffle: int):
    from repro.core import VCEConfig, VirtualComputingEnvironment, heterogeneous_cluster
    from repro.migration.failover import FailoverConfig
    from repro.scheduler.execution_program import RunState
    from repro.workloads import WEATHER_SCRIPT, build_pipeline_graph, weather_programs

    config = VCEConfig(
        seed=seed,
        failover=FailoverConfig(), hb_sanitizer=hb_sanitizer, tie_shuffle=tie_shuffle,
    )
    vce = VirtualComputingEnvironment(heterogeneous_cluster(), config).boot()
    vce.chaos("chaos-mix", seed=seed)
    runs = [
        vce.run_script(WEATHER_SCRIPT, weather_programs(), name="weather"),
        vce.submit(build_pipeline_graph(stages=4, stage_work=15.0, name="pipe")),
    ]
    for run in runs:
        vce.run_to_completion(run, timeout=2_000.0)
        if run.state is not RunState.DONE:
            raise RuntimeError(f"chaos-mix run did not complete: {run.error}")
    vce.run(until=vce.sim.now + 30.0)
    return vce


def _injected_race(seed: int, hb_sanitizer: bool, tie_shuffle: int) -> ScenarioRun:
    """Deliberate scheduler race: two same-timestamp events, scheduled by
    *different* parent events, apply non-commutative updates (``x *= 2``
    vs ``x += 3``) to shared state and note them under rule R900.  The
    final value is emitted as a ``race.final`` outcome record, so any salt
    that permutes the tie diverges the outcome digest."""
    from repro.netsim.kernel import Simulator

    sim = Simulator(seed)
    tracker = None
    if hb_sanitizer:
        tracker = HBTracker()
        sim.hb = tracker
    if tie_shuffle:
        sim.set_tie_shuffle(tie_shuffle)
    state = {"x": 1}

    def doubler() -> None:
        hb = sim.hb
        if hb is not None:
            hb.write("fixture:x", "R900", "injected.doubler")
        state["x"] *= 2

    def adder() -> None:
        hb = sim.hb
        if hb is not None:
            hb.write("fixture:x", "R900", "injected.adder")
        state["x"] += 3

    # each launcher is its own event, so the two racers have different
    # scheduling parents — exactly the ties the shuffle permutes
    sim.schedule_at(1.0, lambda: sim.schedule_at(2.0, doubler, host="a"), host="a")
    sim.schedule_at(1.0, lambda: sim.schedule_at(2.0, adder, host="b"), host="b")
    sim.schedule_at(3.0, lambda: sim.emit("race.final", "fixture", x=state["x"]))
    sim.run(until=5.0)
    return ScenarioRun(log=sim.log, hb=tracker)


@dataclass(frozen=True, slots=True)
class Scenario:
    name: str
    description: str
    run: Callable[..., ScenarioRun]


SCENARIOS: dict[str, Scenario] = {
    "randomdag": Scenario(
        "randomdag",
        "8x8 random DAG on a 4-workstation cluster (golden scenario)",
        partial(_vce_scenario, _randomdag),
    ),
    "chaos-mix": Scenario(
        "chaos-mix",
        "weather + pipeline under the chaos-mix fault schedule with "
        "failover and reliable transport (golden scenario)",
        partial(_vce_scenario, _chaos_mix),
    ),
    "injected-race": Scenario(
        "injected-race",
        "deliberately order-dependent same-timestamp pair (self-test: "
        "must be detected and classified digest-diverging)",
        _injected_race,
    ),
}


# -- orchestration ----------------------------------------------------------


@dataclass(slots=True)
class SanitizeResult:
    """Everything one sanitized scenario produced."""

    scenario: str
    seed: int
    report: AnalysisReport
    classification: str  # "real" | "benign" | "race-free"
    baseline_digest: str
    shuffle_runs: list[dict] = field(default_factory=list)
    races: int = 0
    suppressed: int = 0
    hb_stats: dict = field(default_factory=dict)

    @property
    def diverged(self) -> bool:
        return any(run["diverged"] for run in self.shuffle_runs)

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "classification": self.classification,
            "baseline_digest": self.baseline_digest,
            "shuffle_runs": self.shuffle_runs,
            "races": self.races,
            "suppressed": self.suppressed,
            "hb_stats": self.hb_stats,
            "report": self.report.to_dict(),
        }


def sanitize_scenario(
    name: str,
    seed: int = 3,
    shuffles: int = 4,
    baseline: str | Path | None = None,
    fsms: tuple[ProtocolFSM, ...] = DEFAULT_FSMS,
) -> SanitizeResult:
    """Run scenario *name* through the baseline + tie-shuffle protocol.

    Returns a :class:`SanitizeResult` whose report carries the classified
    race findings and the protocol-conformance findings of the baseline
    run.  Suppressed races (``# hbrace: ok`` sites or *baseline* file) are
    counted but never reported, whatever their classification.
    """
    scenario = SCENARIOS.get(name)
    if scenario is None:
        raise KeyError(
            f"unknown sanitize scenario {name!r} "
            f"(expected one of {', '.join(sorted(SCENARIOS))})"
        )
    base = scenario.run(seed, True, 0)
    base_digest = outcome_digest(base.log)
    protocol_findings = base.protocol_findings
    if protocol_findings is None:
        protocol_findings = check_records(list(base.log), fsms)

    shuffle_runs: list[dict] = []
    for k in range(shuffles):
        salt = shuffle_salt(seed, k)
        entry: dict = {"salt": salt}
        try:
            run_k = scenario.run(seed, False, salt)
        except Exception as exc:  # a crash under reorder is the strongest signal
            entry["error"] = repr(exc)
            entry["diverged"] = True
        else:
            digest = outcome_digest(run_k.log)
            entry["digest"] = digest
            entry["diverged"] = digest != base_digest
        shuffle_runs.append(entry)

    diverged = any(run["diverged"] for run in shuffle_runs)
    races = base.hb.races if base.hb is not None else []
    classification = (
        "race-free" if not races else ("real" if diverged else "benign")
    )
    for race in races:
        race.classification = "real" if diverged else "benign"

    report = AnalysisReport(subject=f"sanitize:{name}")
    suppressed = 0
    if base.hb is not None:
        findings, suppressed = base.hb.race_findings(baseline=baseline)
        report.extend(findings)
    report.extend(protocol_findings)
    if diverged and not races:
        # outcome changed under reorder but no instrumented site saw it:
        # coverage gap, worth a human look but not a hard failure
        report.add(
            "R000", Severity.WARNING,
            "outcome digest diverged under tie-shuffle but no instrumented "
            "access pair raced — an uninstrumented shared state is "
            "order-dependent",
            locus=f"scenario:{name}",
            hint="instrument the state the diverging records point at",
        )
    return SanitizeResult(
        scenario=name,
        seed=seed,
        report=report,
        classification=classification,
        baseline_digest=base_digest,
        shuffle_runs=shuffle_runs,
        races=len(races),
        suppressed=suppressed,
        hb_stats=base.hb.stats() if base.hb is not None else {},
    )
