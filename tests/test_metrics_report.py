"""Direct tests for repro.metrics.report and repro.metrics.timeline.

The workload suite exercises these through full runs; here the inputs are
synthetic, so formatting rules and span extraction are pinned exactly.
"""

from repro.metrics import (
    build_timeline,
    format_series,
    format_table,
    render_gantt,
)
from repro.metrics.report import _fmt
from repro.metrics.timeline import Span
from repro.util.eventlog import EventLog


class TestFmt:
    def test_float_precision_tiers(self):
        assert _fmt(0.0) == "0"
        assert _fmt(0.12345) == "0.1235"  # < 1: four decimals
        assert _fmt(2.345) == "2.35"  # < 100: two decimals
        assert _fmt(1234.5) == "1234"  # >= 100: integer-ish

    def test_non_floats_pass_through(self):
        assert _fmt(7) == "7"
        assert _fmt("ws0") == "ws0"


class TestFormatTable:
    def test_alignment_and_title(self):
        table = format_table(
            ["host", "load"], [["ws0", 0.5], ["longhostname", 1.25]], title="cluster"
        )
        lines = table.splitlines()
        assert lines[0] == "cluster"
        assert lines[1].startswith("host")
        # all rows padded to the same width
        assert len({len(line) for line in lines[1:]}) == 1
        assert "longhostname" in lines[4]

    def test_column_width_from_widest_cell(self):
        table = format_table(["x"], [["wide-value"]])
        header, rule, row = table.splitlines()
        assert rule == "-" * len("wide-value")

    def test_empty_rows_keeps_header(self):
        table = format_table(["a", "bb"], [])
        header, rule = table.splitlines()
        assert header.split() == ["a", "bb"]
        assert rule == "-  --"


class TestFormatSeries:
    def test_pairs(self):
        assert (
            format_series("speedup", [1, 2], [1.0, 1.9])
            == "speedup: (1, 1.00)  (2, 1.90)"
        )

    def test_empty(self):
        assert format_series("s", [], []) == "s: "


def _task_log() -> EventLog:
    log = EventLog()
    log.emit(1.0, "task.start", "ws0/i0", app="a", task="t", rank=0, host="ws0")
    log.emit(5.0, "task.done", "ws0/i0", app="a", task="t", rank=0, host="ws0")
    log.emit(2.0, "task.start", "ws1/i1", app="a", task="t", rank=1, host="ws1")
    return log


class TestBuildTimeline:
    def test_closed_task_span(self):
        spans = build_timeline(_task_log(), horizon=10.0)
        done = [s for s in spans if s.host == "ws0"]
        assert done == [Span("ws0", "a.t[0]", 1.0, 5.0, "task")]

    def test_open_task_span_extends_to_horizon(self):
        spans = build_timeline(_task_log(), horizon=10.0)
        open_span = [s for s in spans if s.host == "ws1"][0]
        assert (open_span.start, open_span.end) == (2.0, 10.0)

    def test_default_horizon_is_last_emitted_record(self):
        # the log above ends with ws1's task.start at t=2.0, so the open
        # span is clipped there when no horizon is given
        spans = build_timeline(_task_log())
        assert [s for s in spans if s.host == "ws1"][0].end == 2.0

    def test_down_and_suspend_spans(self):
        log = EventLog()
        log.emit(1.0, "host.crash", "ws0")
        log.emit(4.0, "host.recover", "ws0")
        log.emit(2.0, "task.suspend", "ws1/i0", app="a", task="t", rank=0)
        log.emit(3.0, "task.resume", "ws1/i0", app="a", task="t", rank=0)
        log.emit(6.0, "host.crash", "ws2")  # never recovers
        spans = build_timeline(log, horizon=8.0)
        kinds = {(s.host, s.kind): s for s in spans}
        assert kinds[("ws0", "down")].end == 4.0
        assert kinds[("ws1", "suspended")].start == 2.0
        assert kinds[("ws2", "down")].end == 8.0  # open until horizon

    def test_sorted_by_host_then_start(self):
        spans = build_timeline(_task_log(), horizon=10.0)
        assert spans == sorted(spans, key=lambda s: (s.host, s.start))

    def test_empty_log(self):
        assert build_timeline(EventLog()) == []


class TestRenderGantt:
    def test_chars_per_kind(self):
        spans = [
            Span("ws0", "a.t[0]", 0.0, 5.0, "task"),
            Span("ws0", "a.t[0]", 5.0, 7.0, "suspended"),
            Span("ws1", "DOWN", 2.0, 10.0, "down"),
        ]
        chart = render_gantt(spans, horizon=10.0, width=10)
        lines = chart.splitlines()
        assert lines[0].startswith("0") and lines[0].endswith("10s")
        ws0 = next(line for line in lines if "ws0" in line)
        ws1 = next(line for line in lines if "ws1" in line)
        assert ws0.split("|")[1] == "#####ss..."
        assert ws1.split("|")[1] == "..xxxxxxxx"

    def test_down_overrides_task(self):
        spans = [
            Span("ws0", "a.t[0]", 0.0, 10.0, "task"),
            Span("ws0", "DOWN", 0.0, 10.0, "down"),
        ]
        chart = render_gantt(spans, horizon=10.0, width=10)
        assert "x" in chart and "#" not in chart

    def test_explicit_host_order(self):
        spans = [Span("b", "x", 0.0, 1.0, "task")]
        chart = render_gantt(spans, horizon=1.0, width=8, hosts=["a", "b"])
        lines = chart.splitlines()
        assert "a" in lines[1] and "b" in lines[2]

    def test_empty_horizon(self):
        assert render_gantt([], horizon=0.0) == "(empty timeline)"
