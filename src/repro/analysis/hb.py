"""Happens-before race sanitizer — a TSan for the simulated VCE.

ROADMAP item 3 moves the scheduler, bidding, failover, and vMPI layers onto
a real network, where the kernel no longer serializes logically-concurrent
events into one global ``(time, seq)`` order.  Any code path that is only
correct because the serial heap happened to order two concurrent events is
a latent distributed-systems bug.  This module finds that class *before*
the transport seam goes real:

- :class:`HBTracker` receives the **schedule-parent tree** from the netsim
  kernel (:mod:`repro.netsim.kernel`): every scheduled event records the event that scheduled it.  In a discrete-event
  simulation every causal edge — message send→receive, timer create→fire,
  continuation/program order — *is* a schedule edge, so ancestry in this
  tree is exactly the happens-before relation.  Deliberately **not** an
  edge: two events merely committed back-to-back by the global heap order
  (same-host or cross-host).  That serialization is an artifact of the
  simulator and disappears on a real network, which is precisely the
  order-dependence this sanitizer exists to detect.

- Instrumented shared-state sites (AgingQueue mutations, allocation-epoch
  commits, lease/strand bookkeeping, channel endpoint tables) call
  :meth:`HBTracker.read` / :meth:`HBTracker.write` with a variable key and
  a stable site name.  Two conflicting accesses
  (at least one write) to the same variable that are unordered by
  happens-before produce a race finding (rules ``R001``–``R0xx``, see
  ``docs/ANALYSIS.md``) carrying both event chains.

- ``# hbrace: ok(R001)`` on a site's source line suppresses its findings
  (same idiom as detlint), and detlint-style baseline files are honoured.
  The tie-shuffle harness (:mod:`repro.analysis.sanitize`) classifies the
  rest as *benign* (replay digests stable under same-timestamp permutation)
  or *real* (digest-diverging).

The tracker is a pure observer: it emits no events and draws no RNG, so
replay digests are byte-identical with it attached.  Race detection is
FastTrack-flavoured: per variable we keep the last write plus the reads
since the last fully-ordered write, so some historical pairs are forgotten
— a deliberate precision/memory trade-off — but an access ordered after
every prior conflicting access never reports (the property
``tests/test_hb_sanitizer.py`` pins with hypothesis).
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from repro.analysis.detlint import load_baseline
from repro.analysis.report import AnalysisReport, Finding, Severity

if TYPE_CHECKING:  # pragma: no cover
    from repro.telemetry.registry import MetricsRegistry

#: Ancestor walks give up after this many parent hops and conservatively
#: report the pair as ordered (never a false positive, possibly a miss).
WALK_CAP = 4096

#: Reads remembered per variable since the last fully-ordered write.
_MAX_READS = 16

_SUPPRESS_RE = re.compile(r"#\s*hbrace:\s*ok\(([A-Za-z0-9_,\s]+)\)")

#: Race-rule catalog (rendered in docs/ANALYSIS.md).
RACE_RULES = {
    "R001": "AgingQueue mutation unordered with another queue access",
    "R003": "allocation-epoch commit unordered with a conflicting epoch access",
    "R004": "lease/strand bookkeeping unordered with a conflicting access",
    "R005": "channel endpoint table access unordered with a rebind/attach",
    "R900": "injected-race fixture rule (tests and `repro sanitize injected-race`)",
}


@dataclass(frozen=True, slots=True)
class AccessSite:
    """One instrumented source location, identified by ``(rule, name)``.

    The locus is captured from the first call that creates the site, so a
    ``# hbrace: ok(R00x)`` comment on that source line suppresses it.
    """

    rule: str
    name: str
    path: str
    line: int

    @property
    def locus(self) -> str:
        return f"{self.path}:{self.line}"


@dataclass(slots=True)
class _VarState:
    write_node: int = -1  # -1: no write seen yet
    write_site: AccessSite | None = None
    reads: list[tuple[int, AccessSite]] = field(default_factory=list)


@dataclass(slots=True)
class Race:
    """One deduplicated race: a pair of conflicting, HB-unordered sites."""

    rule: str
    var: str  # example variable (first occurrence)
    site_a: AccessSite
    site_b: AccessSite
    node_a: int
    node_b: int
    kind: str  # "write/write" or "read/write"
    count: int = 1
    #: set by the tie-shuffle harness: "real", "benign", or None (unclassified)
    classification: str | None = None


def _rel(path: str) -> str:
    """Shorten an absolute module path to something report-friendly."""
    for anchor in ("src/", "tests/"):
        idx = path.find(anchor)
        if idx >= 0:
            return path[idx:]
    return path


class HBTracker:
    """Happens-before tracking plus lightweight race detection.

    The netsim kernel feeds the schedule-parent tree through three hooks
    (inlined on its hot paths):

    - on schedule: ``node = len(hb._parents); hb._parents.append(hb._current);
      hb._node_hosts.append(host)`` and store ``node`` on the entry;
    - on fire: ``hb._current = entry.hb`` before the callback runs.

    :meth:`on_schedule` / :meth:`on_fire` are the equivalent method forms.
    Node 0 is the root: everything done outside any event (setup code) is
    ordered before everything else.
    """

    def __init__(
        self,
        telemetry: "MetricsRegistry | None" = None,
        walk_cap: int = WALK_CAP,
    ) -> None:
        self._parents: list[int] = [0]
        self._node_hosts: list[str | None] = [None]
        self._current = 0
        self._vars: dict[str, _VarState] = {}
        self._sites: dict[tuple[str, str], AccessSite] = {}
        self._races: dict[tuple[str, str, str], Race] = {}
        self.walk_cap = walk_cap
        self.walk_cap_hits = 0
        self.notes = 0
        self._m_races = (
            telemetry.counter(
                "analysis_races_detected_total",
                "distinct HB-unordered conflicting access pairs",
            )
            if telemetry is not None
            else None
        )

    # -- backend hooks -----------------------------------------------------

    def on_schedule(self, host: str | None = None) -> int:
        """Allocate the tracker node for a newly scheduled event."""
        node = len(self._parents)
        self._parents.append(self._current)
        self._node_hosts.append(host)
        return node

    def on_fire(self, node: int) -> None:
        """Enter the context of *node* (its callback is about to run)."""
        self._current = node

    @property
    def nodes(self) -> int:
        return len(self._parents)

    @property
    def current_node(self) -> int:
        return self._current

    # -- happens-before query ----------------------------------------------

    def ordered(self, a: int, b: int) -> bool:
        """True when one of the events happens-before the other (or a == b).

        Ancestor ids are always smaller than descendant ids, so this walks
        the larger node's parent chain down past the smaller one.  Walks are
        capped at ``walk_cap`` hops; a capped walk counts as ordered
        (conservative — never a false race).
        """
        if a == b:
            return True
        if a > b:
            a, b = b, a
        parents = self._parents
        cap = self.walk_cap
        n = b
        while n > a:
            cap -= 1
            if cap <= 0:
                self.walk_cap_hits += 1
                return True
            n = parents[n]
        return n == a

    # -- access tagging ----------------------------------------------------

    def _site(self, rule: str, name: str) -> AccessSite:
        key = (rule, name)
        site = self._sites.get(key)
        if site is None:
            # first use of this (rule, name): the caller's caller is the
            # instrumented source line — captured once, so per-access cost
            # stays a dict hit
            frame = sys._getframe(2)
            site = AccessSite(rule, name, _rel(frame.f_code.co_filename), frame.f_lineno)
            self._sites[key] = site
        return site

    def write(self, var: str, rule: str, site_name: str) -> None:
        """Note a write to shared variable *var* from the current event."""
        self.notes += 1
        site = self._site(rule, site_name)
        cur = self._current
        state = self._vars.get(var)
        if state is None:
            self._vars[var] = _VarState(cur, site)
            return
        if state.write_node >= 0 and not self.ordered(state.write_node, cur):
            self._race(var, state.write_site, state.write_node, site, cur, "write/write")
        reads = state.reads
        if reads:
            all_ordered = True
            for node, read_site in reads:
                if not self.ordered(node, cur):
                    self._race(var, read_site, node, site, cur, "read/write")
                    all_ordered = False
            if all_ordered:
                # every remembered read is ordered before this write: the
                # write now dominates them for any future conflict
                reads.clear()
        state.write_node = cur
        state.write_site = site

    def read(self, var: str, rule: str, site_name: str) -> None:
        """Note a read of shared variable *var* from the current event."""
        self.notes += 1
        site = self._site(rule, site_name)
        cur = self._current
        state = self._vars.get(var)
        if state is None:
            state = self._vars[var] = _VarState()
        elif state.write_node >= 0 and not self.ordered(state.write_node, cur):
            self._race(var, state.write_site, state.write_node, site, cur, "read/write")
        reads = state.reads
        for index, (node, read_site) in enumerate(reads):
            if read_site is site and self.ordered(node, cur):
                reads[index] = (cur, site)
                return
        if len(reads) >= _MAX_READS:
            del reads[0]  # bounded memory; dropping a read can only miss races
        reads.append((cur, site))

    def _race(
        self,
        var: str,
        site_a: AccessSite | None,
        node_a: int,
        site_b: AccessSite,
        node_b: int,
        kind: str,
    ) -> None:
        assert site_a is not None
        locus_a, locus_b = sorted((site_a.locus, site_b.locus))
        key = (site_b.rule, locus_a, locus_b)
        race = self._races.get(key)
        if race is not None:
            race.count += 1
            return
        self._races[key] = Race(
            rule=site_b.rule, var=var, site_a=site_a, site_b=site_b,
            node_a=node_a, node_b=node_b, kind=kind,
        )
        if self._m_races is not None:
            self._m_races.inc()

    # -- reporting ---------------------------------------------------------

    def chain(self, node: int, limit: int = 6) -> str:
        """Render a node's event chain as ``#id@host < ... < #id@host``."""
        hops: list[str] = []
        parents, hosts = self._parents, self._node_hosts
        n = node
        while len(hops) < limit:
            host = hosts[n] if n < len(hosts) else None
            hops.append(f"#{n}@{host or '-'}")
            if n == 0:
                break
            n = parents[n]
        else:
            hops.append("...")
        return " < ".join(reversed(hops))

    @property
    def races(self) -> list[Race]:
        return list(self._races.values())

    def race_findings(
        self,
        baseline: str | Path | None = None,
    ) -> tuple[list[Finding], int]:
        """Render races as report findings, applying ``# hbrace: ok`` site
        suppressions and an optional detlint-format baseline file.

        Returns ``(findings, suppressed_count)``.  Unclassified and benign
        races are WARNINGs; races the tie-shuffle harness classified as
        *real* (digest-diverging) are ERRORs.
        """
        waivers = load_baseline(baseline) if baseline else []
        findings: list[Finding] = []
        suppressed = 0
        for race in sorted(
            self._races.values(), key=lambda r: (r.rule, r.site_a.locus, r.site_b.locus)
        ):
            if (
                _site_suppressed(race.site_a, race.rule)
                or _site_suppressed(race.site_b, race.rule)
                or _race_baselined(race, waivers)
            ):
                suppressed += 1
                continue
            tag = {
                "real": "digest-diverging under tie-shuffle",
                "benign": "digest-stable under tie-shuffle",
                None: "unclassified",
            }[race.classification]
            severity = Severity.ERROR if race.classification == "real" else Severity.WARNING
            findings.append(
                Finding(
                    race.rule,
                    severity,
                    f"{race.kind} race on {race.var!r} ({tag}, seen {race.count}x): "
                    f"{race.site_a.name} [{race.site_a.locus}] chain "
                    f"{self.chain(race.node_a)} is unordered with "
                    f"{race.site_b.name} [{race.site_b.locus}] chain "
                    f"{self.chain(race.node_b)}",
                    locus=race.site_b.locus,
                    hint=f"order the accesses causally, or suppress with "
                         f"'# hbrace: ok({race.rule})' if commutative by design",
                )
            )
        return findings, suppressed

    def report(
        self, subject: str = "hb-sanitizer", baseline: str | Path | None = None
    ) -> AnalysisReport:
        report = AnalysisReport(subject=subject)
        findings, _ = self.race_findings(baseline=baseline)
        report.extend(findings)
        return report

    def stats(self) -> dict:
        return {
            "nodes": len(self._parents),
            "notes": self.notes,
            "variables": len(self._vars),
            "sites": len(self._sites),
            "races": len(self._races),
            "walk_cap_hits": self.walk_cap_hits,
        }


# -- suppression helpers ---------------------------------------------------

_LINE_CACHE: dict[str, list[str]] = {}


def _source_line(path: str, line: int) -> str:
    lines = _LINE_CACHE.get(path)
    if lines is None:
        candidates = [Path(path)]
        if not candidates[0].is_absolute():
            candidates.append(Path.cwd() / path)
        for candidate in candidates:
            try:
                lines = candidate.read_text().splitlines()
                break
            except OSError:
                lines = []
        _LINE_CACHE[path] = lines or []
        lines = _LINE_CACHE[path]
    if 1 <= line <= len(lines):
        return lines[line - 1]
    return ""


def _site_suppressed(site: AccessSite, rule: str) -> bool:
    match = _SUPPRESS_RE.search(_source_line(site.path, site.line))
    if not match:
        return False
    rules = {r.strip().upper() for r in match.group(1).split(",")}
    return rule.upper() in rules


def _race_baselined(race: Race, waivers: list[tuple[str, str, int | None]]) -> bool:
    for site in (race.site_a, race.site_b):
        for rule, b_path, b_line in waivers:
            if rule != race.rule:
                continue
            if not (site.path == b_path or site.path.endswith("/" + b_path)):
                continue
            if b_line is None or b_line == site.line:
                return True
    return False
