"""Protocol FSM conformance — declarative state machines over replay logs.

The VCE's distributed protocols (daemon bidding round-trip, lease/epoch
failover handshake, task/channel lifecycle) are specified here as explicit
finite state machines and checked three ways:

- **dynamically** against any event log — a live run, a saved run directory
  (``repro lint --hb RUN_DIR``), or a replay — by feeding each record's
  category through the FSM instance keyed by its protocol identity
  (request id, ``app:task:rank``, ...);
- **live** via :class:`ProtocolMonitor`, an :class:`~repro.util.eventlog.
  EventLog` observer (observers never change what the log stores, so replay
  digests are unchanged) that also exports the
  ``analysis_protocol_violations_total`` counter;
- **statically** (rule ``P005``) by extending the PR 4 AST pass over the
  repository sources: every symbol in an FSM's alphabet must be produced by
  at least one reachable ``emit("<category>", ...)`` site, so the machines
  cannot silently drift from the code they specify.

Transition classes (see ``docs/ANALYSIS.md`` for the rule tables):

- *expected* transitions are silent;
- *tolerated* transitions are at-least-once / crash-overlap artifacts
  (requester retransmits after a leader loss, duplicate allocation replies,
  stale incarnations finishing after a redispatch).  They are
  reported as INFO, deduplicated, and never fail a run — on a lossy network
  they are legal behaviour, and the at-most-once guards (allocation epochs,
  ``runtime.stale_commit``) are the mechanism that absorbs them;
- any other ``(state, symbol)`` pair is a violation (ERROR): it cannot be
  produced by a correct implementation regardless of message loss, because
  the earlier record is emitted synchronously before the later one can
  exist (e.g. an allocation reply for a request id that no ``sched.request``
  record introduced, or a re-dispatch of an instance that was never
  stranded).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Mapping

from repro.analysis.report import AnalysisReport, Finding, Severity

if TYPE_CHECKING:  # pragma: no cover
    from repro.netsim.kernel import Simulator
    from repro.telemetry.registry import MetricsRegistry
    from repro.util.eventlog import LogRecord


@dataclass(frozen=True)
class ProtocolFSM:
    """One declarative protocol state machine.

    Attributes:
        rule: stable finding id (``P001``...).
        name: short protocol name for messages.
        categories: event categories forming the FSM alphabet; a record
            whose category is not in the alphabet is ignored.
        start: initial state of every instance.
        accept: states an instance may legally end the run in; anything
            else is reported (once per FSM, aggregated) as INFO.
        transitions: ``(state, symbol) -> state`` for expected behaviour.
            Symbols are categories with the ``prefix.`` stripped.
        tolerated: ``(state, symbol) -> (state, note)`` for legal
            at-least-once artifacts, reported as deduplicated INFO.
        resync: ``symbol -> state`` applied after a violation so one bad
            record does not cascade into spurious follow-on violations.
        key: record → instance identity (None skips the record).
    """

    rule: str
    name: str
    categories: frozenset[str]
    start: str
    accept: frozenset[str]
    transitions: Mapping[tuple[str, str], str]
    tolerated: Mapping[tuple[str, str], tuple[str, str]] = field(default_factory=dict)
    resync: Mapping[str, str] = field(default_factory=dict)
    key: Callable[["LogRecord"], str | None] = lambda record: record.source

    def symbol(self, category: str) -> str:
        return category.split(".", 1)[1] if "." in category else category


def _req_key(record: "LogRecord") -> str | None:
    return record.get("req_id")


def _instance_key(record: "LogRecord") -> str | None:
    task = record.get("task")
    rank = record.get("rank")
    if task is None or rank is None:
        return None
    # runtime./recovery. records carry the app id as the record source;
    # task.* records carry it in data
    app = record.get("app", record.source)
    return f"{app}:{task}:{rank}"


#: P001 — daemon bidding round-trip (Figure 3, §5): request → disclose/bid
#: collection (flat or hierarchical cells) → alloc | alloc_error, with
#: aging-queue retries re-entering the round.
BIDDING_FSM = ProtocolFSM(
    rule="P001",
    name="bidding",
    categories=frozenset({
        "sched.request", "sched.delegate", "sched.cell_poll", "sched.cell_bids",
        "sched.cell_timeout", "sched.alloc", "sched.alloc_error", "sched.retry",
        "sched.reprioritized",
    }),
    start="idle",
    accept=frozenset({"idle", "resolved", "queued"}),
    transitions={
        ("idle", "request"): "collecting",
        # a request may be queued by the leader without starting a round
        # (no record is emitted for the enqueue itself)
        ("idle", "retry"): "idle",
        ("idle", "reprioritized"): "idle",
        ("collecting", "delegate"): "collecting",
        ("collecting", "cell_poll"): "collecting",
        ("collecting", "cell_bids"): "collecting",
        ("collecting", "cell_timeout"): "collecting",
        ("collecting", "alloc"): "resolved",
        ("collecting", "alloc_error"): "queued",
        ("queued", "retry"): "queued",
        ("queued", "reprioritized"): "queued",
        ("queued", "request"): "collecting",
        ("resolved", "reprioritized"): "resolved",
    },
    tolerated={
        # at-least-once artifacts: the requester retransmits after a leader
        # loss, so overlapping rounds / duplicate replies for one req_id are
        # legal; the requester drops all but the first AllocationReply
        ("collecting", "request"): ("collecting", "requester retransmit started an overlapping round"),
        ("collecting", "retry"): ("collecting", "queued retry raced an in-flight round"),
        ("resolved", "request"): ("collecting", "retransmit after a resolved round"),
        ("resolved", "retry"): ("resolved", "queued retry after a resolved round"),
        ("resolved", "alloc"): ("resolved", "duplicate allocation (requester keeps the first)"),
        ("resolved", "alloc_error"): ("resolved", "late alloc_error after a resolved round"),
        ("queued", "alloc"): ("resolved", "an earlier overlapping round resolved a queued request"),
        ("queued", "alloc_error"): ("queued", "repeat alloc_error for a queued request"),
        ("queued", "cell_poll"): ("queued", "late cell activity for a queued request"),
        ("queued", "cell_bids"): ("queued", "late cell activity for a queued request"),
        ("queued", "cell_timeout"): ("queued", "late cell activity for a queued request"),
        ("resolved", "cell_poll"): ("resolved", "late cell activity after resolution"),
        ("resolved", "cell_bids"): ("resolved", "late cell activity after resolution"),
        ("resolved", "cell_timeout"): ("resolved", "late cell activity after resolution"),
        ("collecting", "reprioritized"): ("collecting", "priority change raced an in-flight round"),
    },
    resync={"request": "collecting", "alloc": "resolved", "alloc_error": "queued"},
    key=_req_key,
)

#: P002 — epoch failover handshake: a crash strands the record; a strand
#: is re-dispatched under a new allocation epoch; stale epochs must never
#: commit.
FAILOVER_FSM = ProtocolFSM(
    rule="P002",
    name="failover",
    categories=frozenset({
        "runtime.dispatch", "runtime.stale_commit", "recovery.strand",
        "recovery.redispatch", "recovery.gave_up",
    }),
    start="idle",
    accept=frozenset({"idle", "live", "dead"}),
    transitions={
        ("idle", "dispatch"): "live",
        ("live", "dispatch"): "live",
        ("live", "strand"): "stranded",
        ("stranded", "strand"): "stranded",
        ("stranded", "redispatch"): "stranded",
        ("stranded", "dispatch"): "live",
        ("live", "stale_commit"): "live",
        ("stranded", "stale_commit"): "stranded",
        ("dead", "stale_commit"): "dead",
        ("live", "gave_up"): "dead",
        ("stranded", "gave_up"): "dead",
    },
    tolerated={
        ("dead", "strand"): ("dead", "in-flight strand after giving up"),
    },
    resync={"dispatch": "live", "strand": "stranded", "redispatch": "stranded"},
    key=_instance_key,
)

#: P003 — task-instance / channel-endpoint lifecycle: start after dispatch,
#: suspend/resume pairing, a single terminal commit per incarnation.
LIFECYCLE_FSM = ProtocolFSM(
    rule="P003",
    name="lifecycle",
    categories=frozenset({
        "task.start", "task.checkpoint", "task.file_fetch", "task.suspend",
        "task.resume", "task.done", "task.failed", "task.killed",
        "task.host_crashed",
    }),
    start="idle",
    accept=frozenset({"idle", "done", "dead"}),
    transitions={
        ("idle", "start"): "running",
        ("running", "checkpoint"): "running",
        ("running", "file_fetch"): "running",
        ("running", "suspend"): "suspended",
        ("suspended", "resume"): "running",
        ("running", "done"): "done",
        ("running", "failed"): "dead",
        ("running", "killed"): "dead",
        ("running", "host_crashed"): "dead",
        ("suspended", "done"): "done",
        ("suspended", "failed"): "dead",
        ("suspended", "killed"): "dead",
        ("suspended", "host_crashed"): "dead",
        # a re-dispatched incarnation starts over
        ("done", "start"): "running",
        ("dead", "start"): "running",
    },
    tolerated={
        ("running", "start"): ("running", "new incarnation started while a stale one is still live"),
        ("running", "resume"): ("running", "resume without a logged suspend (migration restore)"),
        ("suspended", "suspend"): ("suspended", "double suspend (migration raced a crash)"),
        ("done", "done"): ("done", "duplicate terminal commit (stale-epoch guard absorbs it)"),
        ("done", "failed"): ("done", "stale incarnation failed after commit"),
        ("done", "killed"): ("done", "stale incarnation killed after commit"),
        ("done", "host_crashed"): ("done", "host crash after commit"),
        ("done", "suspend"): ("done", "suspension of an already-committed instance"),
        ("dead", "done"): ("dead", "stale incarnation finished after strand"),
        ("dead", "failed"): ("dead", "repeat failure of a dead incarnation"),
        ("dead", "killed"): ("dead", "repeat kill of a dead incarnation"),
        ("dead", "host_crashed"): ("dead", "host crash of a dead incarnation"),
        ("dead", "suspend"): ("dead", "suspension of a dead incarnation"),
    },
    resync={"start": "running", "done": "done", "failed": "dead", "killed": "dead"},
    key=_instance_key,
)

DEFAULT_FSMS: tuple[ProtocolFSM, ...] = (BIDDING_FSM, FAILOVER_FSM, LIFECYCLE_FSM)


# -- dynamic checking ------------------------------------------------------


class _FSMRun:
    """Live state of one FSM across all of its keyed instances."""

    __slots__ = ("fsm", "states", "violations", "tolerated_hits")

    def __init__(self, fsm: ProtocolFSM) -> None:
        self.fsm = fsm
        self.states: dict[str, str] = {}
        # (state, symbol) -> [count, example key, example time]
        self.violations: dict[tuple[str, str], list] = {}
        self.tolerated_hits: dict[tuple[str, str], list] = {}

    def feed(self, record: "LogRecord") -> bool:
        """Advance on *record*. Returns True when it was a violation."""
        fsm = self.fsm
        if record.category not in fsm.categories:
            return False
        key = fsm.key(record)
        if key is None:
            return False
        symbol = fsm.symbol(record.category)
        state = self.states.get(key, fsm.start)
        nxt = fsm.transitions.get((state, symbol))
        if nxt is not None:
            self.states[key] = nxt
            return False
        tolerated = fsm.tolerated.get((state, symbol))
        if tolerated is not None:
            self.states[key] = tolerated[0]
            hit = self.tolerated_hits.get((state, symbol))
            if hit is None:
                self.tolerated_hits[(state, symbol)] = [1, key, record.time]
            else:
                hit[0] += 1
            return False
        entry = self.violations.get((state, symbol))
        if entry is None:
            self.violations[(state, symbol)] = [1, key, record.time]
        else:
            entry[0] += 1
        self.states[key] = fsm.resync.get(symbol, state)
        return True

    def findings(self, include_end_states: bool = True) -> list[Finding]:
        fsm = self.fsm
        out: list[Finding] = []
        for (state, symbol), (count, key, time) in sorted(self.violations.items()):
            out.append(
                Finding(
                    fsm.rule, Severity.ERROR,
                    f"{fsm.name} protocol violation: symbol {symbol!r} is not "
                    f"legal in state {state!r} (seen {count}x; first: key "
                    f"{key!r} at t={time:g})",
                    locus=f"log:{fsm.name}",
                    hint="a correct implementation cannot emit this sequence; "
                         "check the handler that produced the record",
                )
            )
        for (state, symbol), (count, key, time) in sorted(self.tolerated_hits.items()):
            note = fsm.tolerated[(state, symbol)][1]
            out.append(
                Finding(
                    fsm.rule, Severity.INFO,
                    f"{fsm.name}: tolerated at-least-once artifact "
                    f"{symbol!r} in state {state!r} ({note}; seen {count}x, "
                    f"first: key {key!r} at t={time:g})",
                    locus=f"log:{fsm.name}",
                )
            )
        if include_end_states:
            stuck = sorted(
                (key, state) for key, state in self.states.items()
                if state not in fsm.accept
            )
            if stuck:
                sample = ", ".join(f"{k}={s}" for k, s in stuck[:4])
                out.append(
                    Finding(
                        fsm.rule, Severity.INFO,
                        f"{fsm.name}: {len(stuck)} instance(s) end in "
                        f"non-accepting states ({sample}"
                        f"{', ...' if len(stuck) > 4 else ''}) — expected for "
                        "truncated or faulted runs",
                        locus=f"log:{fsm.name}",
                    )
                )
        return out


def check_records(
    records: Iterable["LogRecord"],
    fsms: tuple[ProtocolFSM, ...] = DEFAULT_FSMS,
    include_end_states: bool = True,
) -> list[Finding]:
    """Run every FSM over *records* (in order) and collect findings."""
    runs = [_FSMRun(fsm) for fsm in fsms]
    for record in records:
        for run in runs:
            run.feed(record)
    findings: list[Finding] = []
    for run in runs:
        findings.extend(run.findings(include_end_states=include_end_states))
    return findings


class ProtocolMonitor:
    """Live FSM conformance as an event-log observer.

    Attaching an observer never changes what the log stores, so replay
    digests are byte-identical with the monitor on.  Violations increment
    the ``analysis_protocol_violations_total`` counter as they happen, so
    the control-plane dashboard surfaces them mid-run.
    """

    def __init__(
        self,
        sim: "Simulator",
        fsms: tuple[ProtocolFSM, ...] = DEFAULT_FSMS,
        telemetry: "MetricsRegistry | None" = None,
    ) -> None:
        self._runs = [_FSMRun(fsm) for fsm in fsms]
        self._sim = sim
        registry = telemetry if telemetry is not None else sim.telemetry
        self._m_violations = (
            registry.counter(
                "analysis_protocol_violations_total",
                "protocol FSM conformance violations",
            )
            if registry is not None
            else None
        )
        sim.log.add_observer(self._on_record)

    def _on_record(self, record: "LogRecord") -> None:
        for run in self._runs:
            if run.feed(record) and self._m_violations is not None:
                self._m_violations.inc()

    def detach(self) -> None:
        self._sim.log.remove_observer(self._on_record)

    @property
    def violations(self) -> int:
        return sum(
            count for run in self._runs
            for (count, _, _) in run.violations.values()
        )

    def findings(self, include_end_states: bool = True) -> list[Finding]:
        out: list[Finding] = []
        for run in self._runs:
            out.extend(run.findings(include_end_states=include_end_states))
        return out

    def report(self, subject: str = "protocol") -> AnalysisReport:
        report = AnalysisReport(subject=subject)
        report.extend(self.findings())
        return report


# -- static conformance (P005) ---------------------------------------------


def _emit_categories(tree: ast.AST) -> tuple[set[str], set[str]]:
    """All ``emit("<category>", ...)`` literals in *tree*, and every
    category a handle is resolved for (``log.category("<category>", ...)``).

    Returns ``(exact, prefixes)`` where *prefixes* covers f-string names
    like ``category(f"task.{state.value}", ...)`` as wildcard prefixes.
    """
    exact: set[str] = set()
    prefixes: set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        fn = node.func
        name = fn.attr if isinstance(fn, ast.Attribute) else (
            fn.id if isinstance(fn, ast.Name) else ""
        )
        if name not in ("emit", "category"):
            continue
        first = node.args[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            exact.add(first.value)
        elif isinstance(first, ast.JoinedStr) and first.values:
            head = first.values[0]
            if isinstance(head, ast.Constant) and isinstance(head.value, str):
                prefixes.add(head.value)
    return exact, prefixes


def check_protocol_sources(
    root: str | Path = "src/repro",
    fsms: tuple[ProtocolFSM, ...] = DEFAULT_FSMS,
) -> list[Finding]:
    """P005: statically verify every FSM alphabet symbol is producible.

    Extends the PR 4 AST pass over the repository sources: every category an
    FSM claims must be emitted by at least one source site (exactly or via
    an f-string prefix), i.e. every send/receive symbol in the declared
    machines is reachable from real code.  A dead alphabet entry means the
    FSM has drifted from the implementation — the conformance checks above
    would silently stop covering that part of the protocol.
    """
    rootp = Path(root)
    exact: set[str] = set()
    prefixes: set[str] = set()
    if rootp.is_file():
        files: list[Path] = [rootp]
    else:
        files = sorted(
            p for p in rootp.rglob("*.py") if "__pycache__" not in p.parts
        )
    for path in files:
        try:
            tree = ast.parse(path.read_text())
        except (SyntaxError, OSError):
            continue
        file_exact, file_prefixes = _emit_categories(tree)
        exact |= file_exact
        prefixes |= file_prefixes
    findings: list[Finding] = []
    for fsm in fsms:
        for category in sorted(fsm.categories):
            if category in exact:
                continue
            if any(category.startswith(prefix) for prefix in prefixes):
                continue
            findings.append(
                Finding(
                    "P005", Severity.ERROR,
                    f"FSM {fsm.name!r} ({fsm.rule}) claims category "
                    f"{category!r} but no emit site in {rootp} produces it "
                    "— the machine has drifted from the implementation",
                    locus=str(rootp),
                    hint="update the FSM alphabet or restore the emit site",
                )
            )
    return findings
