"""Tests for the happens-before sanitizer, protocol conformance, and the
tie-shuffle classification harness (``repro sanitize``).

The two load-bearing guarantees pinned here:

- an access ordered (by the schedule-parent tree) after every prior
  conflicting access is *never* reported as a race — the hypothesis
  property below drives the tracker over arbitrary trees and checks every
  reported pair against an independent ancestry oracle;
- the deliberately order-dependent ``injected-race`` fixture *is* detected
  and classified digest-diverging, while the golden
  scenarios stay byte-identical with the sanitizer attached.
"""

import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.detlint import iter_python_files, lint_source
from repro.analysis.hb import HBTracker
from repro.analysis.protocol import (
    ProtocolFSM,
    ProtocolMonitor,
    check_protocol_sources,
    check_records,
)
from repro.analysis.report import Severity
from repro.analysis.sanitize import (
    SCENARIOS,
    outcome_digest,
    sanitize_scenario,
    shuffle_salt,
)
from repro.util.eventlog import LogRecord


# ------------------------------------------------------------- HB tracking


def test_sequential_chain_never_races():
    hb = HBTracker()
    for _ in range(20):
        node = hb.on_schedule()
        hb.on_fire(node)
        hb.write("var", "R900", "chain.write")
        hb.read("var", "R900", "chain.read")
    assert hb.races == []


def test_unordered_writes_race():
    hb = HBTracker()
    # two siblings scheduled from the root, each writing the same var
    a = hb.on_schedule("a")
    b = hb.on_schedule("b")
    hb.on_fire(a)
    hb.write("var", "R900", "sib.a")
    hb.on_fire(b)
    hb.write("var", "R900", "sib.b")
    races = hb.races
    assert len(races) == 1
    assert races[0].kind == "write/write"
    assert races[0].count == 1


def test_read_read_is_not_a_conflict():
    hb = HBTracker()
    a = hb.on_schedule()
    b = hb.on_schedule()
    hb.on_fire(a)
    hb.read("var", "R900", "rr.a")
    hb.on_fire(b)
    hb.read("var", "R900", "rr.b")
    assert hb.races == []


def test_race_dedup_counts():
    hb = HBTracker()
    a = hb.on_schedule()
    b = hb.on_schedule()
    hb.on_fire(a)
    hb.write("var", "R900", "dup.a")
    for _ in range(3):
        hb.on_fire(b)
        hb.write("var", "R900", "dup.b")
        hb.on_fire(a)
        hb.write("var", "R900", "dup.a")
    assert len(hb.races) == 1
    assert hb.races[0].count >= 3


def test_walk_cap_is_conservative():
    hb = HBTracker(walk_cap=4)
    node = hb.on_schedule()
    hb.on_fire(node)
    hb.write("var", "R900", "deep.first")
    for _ in range(64):  # descend far deeper than the cap
        node = hb.on_schedule()
        hb.on_fire(node)
    # capped walk cannot prove anything; it must claim ordered, not race
    hb.write("var", "R900", "deep.second")
    assert hb.races == []
    assert hb.walk_cap_hits > 0


# The property the module docstring promises: conflicting accesses where
# each is HB-ordered after all prior ones never report.  The strategy
# builds an arbitrary schedule tree, then walks accesses down one root
# path so every next access context descends from the previous one.
@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(st.booleans(), st.integers(0, 3), st.booleans()),
        min_size=1,
        max_size=40,
    )
)
def test_property_ordered_chain_never_reported(ops):
    hb = HBTracker()
    for is_write, extra_children, same_node in ops:
        if not same_node or hb.current_node == 0:
            # descend: new node scheduled from the current context
            node = hb.on_schedule()
            # decoy siblings that never access the variable
            for _ in range(extra_children):
                hb.on_schedule()
            hb.on_fire(node)
        if is_write:
            hb.write("var", "R900", "prop.write")
        else:
            hb.read("var", "R900", "prop.read")
    assert hb.races == []


# False-positive freedom on arbitrary trees: every reported race pair
# must be genuinely unordered per an independent ancestry oracle.
@settings(max_examples=100, deadline=None)
@given(st.data())
def test_property_reported_races_are_unordered(data):
    n = data.draw(st.integers(2, 25))
    hb = HBTracker()
    nodes = [0]
    for _ in range(n):
        parent = data.draw(st.sampled_from(nodes))
        hb.on_fire(parent)
        nodes.append(hb.on_schedule())
    accesses = data.draw(
        st.lists(
            st.tuples(st.sampled_from(nodes), st.booleans()),
            min_size=2, max_size=30,
        )
    )
    parents = list(hb._parents)

    def ancestor(a, b):  # ground truth, independent of hb.ordered
        while b > a:
            b = parents[b]
        return a == b

    for node, is_write in accesses:
        hb.on_fire(node)
        if is_write:
            hb.write("v", "R900", "oracle.write")
        else:
            hb.read("v", "R900", "oracle.read")
    for race in hb.races:
        a, b = sorted((race.node_a, race.node_b))
        assert not ancestor(a, b), (race, parents)


def test_chain_rendering_names_hosts():
    hb = HBTracker()
    a = hb.on_schedule("alpha")
    hb.on_fire(a)
    b = hb.on_schedule("beta")
    assert hb.chain(b) == "#0@- < #1@alpha < #2@beta"


def test_stats_shape():
    hb = HBTracker()
    node = hb.on_schedule()
    hb.on_fire(node)
    hb.write("v", "R900", "stats.w")
    stats = hb.stats()
    assert stats["nodes"] == 2 and stats["notes"] == 1
    assert stats["variables"] == 1 and stats["races"] == 0


def test_race_telemetry_counter():
    from repro.telemetry.registry import MetricsRegistry

    registry = MetricsRegistry()
    hb = HBTracker(telemetry=registry)
    a, b = hb.on_schedule(), hb.on_schedule()
    hb.on_fire(a)
    hb.write("v", "R900", "tel.a")
    hb.on_fire(b)
    hb.write("v", "R900", "tel.b")
    assert registry.counter("analysis_races_detected_total").value == 1.0


# ------------------------------------------------- suppression and baseline


def _two_sibling_races(suppress: bool):
    hb = HBTracker()
    a, b = hb.on_schedule(), hb.on_schedule()
    hb.on_fire(a)
    if suppress:
        hb.write("v", "R900", "supp.a")  # hbrace: ok(R900)
    else:
        hb.write("v", "R900", "plain.a")
    hb.on_fire(b)
    if suppress:
        hb.write("v", "R900", "supp.b")
    else:
        hb.write("v", "R900", "plain.b")
    return hb


def test_site_comment_suppresses():
    findings, suppressed = _two_sibling_races(True).race_findings()
    assert findings == [] and suppressed == 1


def test_unsuppressed_race_reports_warning_unclassified():
    findings, suppressed = _two_sibling_races(False).race_findings()
    assert suppressed == 0
    assert [f.severity for f in findings] == [Severity.WARNING]
    assert "unclassified" in findings[0].message


def test_baseline_file_suppresses(tmp_path):
    hb = _two_sibling_races(False)
    baseline = tmp_path / "hb-baseline"
    baseline.write_text("# grandfathered\nR900 tests/test_hb_sanitizer.py\n")
    findings, suppressed = hb.race_findings(baseline=baseline)
    assert findings == [] and suppressed == 1


def test_real_classification_is_error():
    hb = _two_sibling_races(False)
    for race in hb.races:
        race.classification = "real"
    findings, _ = hb.race_findings()
    assert [f.severity for f in findings] == [Severity.ERROR]
    assert "digest-diverging" in findings[0].message


# --------------------------------------------------------- protocol FSMs


def _rec(time, category, source="s", **data):
    return LogRecord(time, category, source, data)


class TestProtocolFSMs:
    def test_clean_bidding_round(self):
        records = [
            _rec(1, "sched.request", req_id="r1"),
            _rec(2, "sched.alloc", req_id="r1"),
        ]
        assert check_records(records, include_end_states=False) == []

    def test_alloc_without_request_is_violation(self):
        findings = check_records(
            [_rec(1, "sched.alloc", req_id="r1")], include_end_states=False
        )
        assert [f.rule for f in findings] == ["P001"]
        assert findings[0].severity is Severity.ERROR

    def test_retransmit_is_tolerated_info(self):
        records = [
            _rec(1, "sched.request", req_id="r1"),
            _rec(2, "sched.request", req_id="r1"),  # at-least-once retransmit
            _rec(3, "sched.alloc", req_id="r1"),
        ]
        findings = check_records(records, include_end_states=False)
        assert [f.severity for f in findings] == [Severity.INFO]
        assert "retransmit" in findings[0].message

    def test_redispatch_without_strand_is_violation(self):
        findings = check_records(
            [_rec(1, "recovery.redispatch", "app", task="t", rank=0)],
            include_end_states=False,
        )
        assert [f.rule for f in findings] == ["P002"]

    def test_done_without_start_is_violation_then_resyncs(self):
        records = [
            _rec(1, "task.done", "h", task="t", rank=0, app="a"),
            # resync puts the instance in 'done'; a restart is then legal
            _rec(2, "task.start", "h", task="t", rank=0, app="a"),
            _rec(3, "task.done", "h", task="t", rank=0, app="a"),
        ]
        findings = check_records(records, include_end_states=False)
        assert [f.rule for f in findings] == ["P003"]
        assert sum(f.severity is Severity.ERROR for f in findings) == 1

    def test_non_accepting_end_state_is_aggregated_info(self):
        records = [_rec(1, "task.start", "h", task="t", rank=0, app="a")]
        findings = check_records(records, include_end_states=True)
        assert [f.severity for f in findings] == [Severity.INFO]
        assert "non-accepting" in findings[0].message

    def test_keyless_records_are_skipped(self):
        # no req_id / task+rank → no FSM instance, no findings
        assert check_records([_rec(1, "sched.alloc"), _rec(2, "task.done")]) == []

    def test_monitor_counts_violations_live(self):
        from repro.netsim.backend import create_simulator
        from repro.telemetry.registry import MetricsRegistry

        sim = create_simulator(1)
        registry = MetricsRegistry()
        monitor = ProtocolMonitor(sim, telemetry=registry)
        sim.schedule_at(1.0, lambda: sim.emit("sched.alloc", "s", req_id="r9"))
        sim.run(until=2.0)
        assert monitor.violations == 1
        assert (
            registry.counter("analysis_protocol_violations_total").value == 1.0
        )
        assert [f.rule for f in monitor.findings(include_end_states=False)] == ["P001"]
        monitor.detach()

    def test_static_p005_clean_on_tree(self):
        import repro
        from pathlib import Path

        assert check_protocol_sources(Path(repro.__file__).parent) == []

    def test_static_p005_flags_dead_alphabet(self, tmp_path):
        (tmp_path / "mod.py").write_text(
            'def go(sim):\n    sim.emit("proto.hello", "x")\n'
        )
        fsm = ProtocolFSM(
            rule="P001", name="toy",
            categories=frozenset({"proto.hello", "proto.ghost"}),
            start="idle", accept=frozenset({"idle"}), transitions={},
        )
        findings = check_protocol_sources(tmp_path, fsms=(fsm,))
        assert len(findings) == 1
        assert "proto.ghost" in findings[0].message
        assert findings[0].rule == "P005"


# ------------------------------------------------------- outcome digests


class TestOutcomeDigest:
    def test_order_independent(self):
        records = [
            _rec(1, "task.done", "h1", task="a", rank=0),
            _rec(2, "task.done", "h2", task="b", rank=1),
        ]
        assert outcome_digest(records) == outcome_digest(records[::-1])

    def test_time_and_transient_keys_ignored(self):
        a = _rec(1, "task.done", "h", task="t", latency=0.5)
        b = _rec(9, "task.done", "h", task="t", latency=2.5)
        assert outcome_digest([a]) == outcome_digest([b])

    def test_durable_difference_diverges(self):
        a = _rec(1, "race.final", "fixture", x=5)
        b = _rec(1, "race.final", "fixture", x=8)
        assert outcome_digest([a]) != outcome_digest([b])

    def test_non_outcome_categories_ignored(self):
        a = [_rec(1, "task.done", "h", task="t")]
        b = a + [_rec(2, "net.send", "h", src="a", dst="b")]
        assert outcome_digest(a) == outcome_digest(b)

    def test_shuffle_salts_deterministic_positive_distinct(self):
        salts = [shuffle_salt(3, k) for k in range(8)]
        assert salts == [shuffle_salt(3, k) for k in range(8)]
        assert all(s > 0 for s in salts)
        assert len(set(salts)) == len(salts)


# --------------------------------------------------- sanitize harness


def test_injected_race_detected_and_real():
    result = sanitize_scenario("injected-race", seed=3, shuffles=2)
    assert result.classification == "real"
    assert result.races == 1
    assert result.diverged
    errors = [f for f in result.report.sorted_findings() if f.severity is Severity.ERROR]
    assert [f.rule for f in errors] == ["R900"]
    assert result.report.exit_code(strict=False) == 1


def test_injected_race_shuffle_is_salt_deterministic():
    fixture = SCENARIOS["injected-race"].run
    salt = shuffle_salt(3, 0)
    d1 = outcome_digest(fixture(3, False, salt).log)
    d2 = outcome_digest(fixture(3, False, salt).log)
    assert d1 == d2
    base = outcome_digest(fixture(3, False, 0).log)
    assert d1 != base  # this salt permutes the tie — the fixture's point


def test_unknown_scenario_raises():
    with pytest.raises(KeyError):
        sanitize_scenario("no-such-scenario")


def test_set_tie_shuffle_guards():
    from repro.netsim.backend import create_simulator
    from repro.util.errors import SimulationError

    sim = create_simulator(1)
    with pytest.raises(SimulationError):
        sim.set_tie_shuffle(-1)


def test_randomdag_race_free_and_digest_stable():
    result = sanitize_scenario("randomdag", seed=3, shuffles=1)
    assert result.classification == "race-free"
    assert result.report.errors == []
    assert not result.diverged


def test_golden_digest_unchanged_with_sanitizer_attached():
    """The sanitizer is a pure observer: the golden replay digest must be
    byte-identical with it on."""
    from repro.analysis.sanitize import _randomdag
    from repro.trace.replay import event_log_digest
    from tests.test_cost_ledger import ledger

    golden = ledger()["randomdag_seed3"]["digest"]
    vce = _randomdag(3, hb_sanitizer=True, tie_shuffle=0)
    assert event_log_digest(vce.sim.log) == golden
    assert vce.hb_tracker is not None and vce.hb_tracker.nodes > 100
    assert vce.protocol_monitor is not None


def test_directed_channel_send_still_notes_the_route_read():
    """The short path of a directed send (no interposer) keeps the R005
    instrumentation of the general route: an attach that is unordered with
    the send is still a reported race, with or without an interposer."""
    from repro.channels import ChannelManager, Interposer, Port, PortDirection
    from repro.netsim import Network, SimProcess, Simulator

    def races(split: bool):
        sim = Simulator(0)
        hb = sim.hb = HBTracker()
        net = Network(sim)
        chan = ChannelManager(net).create("data")
        host = net.add_host("h")
        sink = SimProcess("sink")
        host.spawn(sink)
        if split:
            relay = Interposer("relay")
            host.spawn(relay)
            chan.split(relay)
        chan.attach(Port("rx0", sink.address, PortDirection.RECEIVE))
        tx = Port("tx", sink.address, PortDirection.SEND)
        sim.run()
        notes = hb.notes
        chan.send(tx, "x", to="rx0")
        if not split:
            assert hb.notes == notes + 1  # the read, on the send itself
        # two sibling events: one sends, one attaches a port
        sim.schedule(1.0, lambda: chan.send(tx, "y", to="rx0"))
        sim.schedule(1.0, lambda: chan.attach(
            Port("rx1", sink.address, PortDirection.RECEIVE)
        ))
        sim.run()
        return [(r.rule, r.kind, r.var, r.site_a.name, r.site_b.name) for r in hb.races]

    expected = [("R005", "read/write", "chan:data", "channel.route", "channel.attach")]
    assert races(split=False) == expected
    assert races(split=True) == expected


# ------------------------------------------------------------- CLI surface


def test_cli_sanitize_injected_race(tmp_path):
    from repro.cli import main

    out = io.StringIO()
    artifact = tmp_path / "san.json"
    code = main(
        [
            "sanitize", "injected-race", "--shuffles", "2",
            "--json", str(artifact), "--no-static",
        ],
        out=out,
    )
    assert code == 1  # the fixture race is an ERROR by design
    text = out.getvalue()
    assert "injected-race: real" in text
    payload = json.loads(artifact.read_text())
    assert payload["scenarios"][0]["classification"] == "real"
    assert payload["errors"] >= 1


def test_cli_sanitize_unknown_scenario():
    from repro.cli import main

    assert main(["sanitize", "bogus"]) == 2


# ------------------------------------------------------- detlint D004 + dirs


class TestD004:
    def test_flags_id_and_hash_keys(self):
        src = (
            "hosts.sort(key=id)\n"
            "pick = min(hosts, key=lambda h: hash(h))\n"
            "best = sorted(hosts, key=lambda h: (hash(h), h.name))\n"
        )
        findings = lint_source(src, "src/repro/scheduler/x.py")
        assert [f.rule for f in findings] == ["D004"] * 3
        assert all(f.severity is Severity.WARNING for f in findings)

    def test_stable_keys_and_other_modules_clean(self):
        src = "best = sorted(hosts, key=lambda h: h.name)\nhosts.sort(key=id)\n"
        assert lint_source("best = sorted(hosts, key=lambda h: h.name)\n",
                           "src/repro/scheduler/x.py") == []
        assert lint_source(src, "src/repro/util/x.py") == []

    def test_suppression(self):
        src = "hosts.sort(key=id)  # detlint: ok(D004)\n"
        assert lint_source(src, "src/repro/netsim/x.py") == []

    def test_iter_python_files_skips_litter(self, tmp_path):
        (tmp_path / "__pycache__").mkdir()
        (tmp_path / "__pycache__" / "a.py").write_text("")
        (tmp_path / ".hidden").mkdir()
        (tmp_path / ".hidden" / "b.py").write_text("")
        (tmp_path / "pkg.egg-info").mkdir()
        (tmp_path / "pkg.egg-info" / "c.py").write_text("")
        (tmp_path / "zz.py").write_text("")
        (tmp_path / "aa.py").write_text("")
        files = iter_python_files([tmp_path])
        assert [p.name for p in files] == ["aa.py", "zz.py"]  # sorted, filtered
