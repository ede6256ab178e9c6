"""The derived metrics, on hand-built inputs."""

from metrics import crash_to_redispatch, pair_latencies, percentile
from repro.util.eventlog import LogRecord


def test_crash_to_redispatch_pairs_with_the_latest_crash_of_the_source():
    log = [
        LogRecord(10.0, "fault.crash", "ws3"),
        LogRecord(11.0, "fault.crash", "ws5"),
        LogRecord(14.5, "recovery.redispatch", "app-1", {"src": "ws3", "dst": "ws0"}),
    ]
    assert crash_to_redispatch(log) == [4.5]


def test_crash_to_redispatch_uses_the_second_crash_and_skips_uncrashed_sources():
    log = [
        LogRecord(10.0, "fault.crash", "ws3"),
        LogRecord(30.0, "fault.crash", "ws3"),
        LogRecord(32.0, "recovery.redispatch", "app-1", {"src": "ws3"}),
        LogRecord(33.0, "recovery.redispatch", "app-2", {"src": "ws7"}),
    ]
    assert crash_to_redispatch(log) == [2.0]


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(values, 99) == 99
    assert percentile([7.0], 95) == 7.0
    assert percentile([], 50) == 0.0


def test_pair_latencies_by_key():
    log = [
        LogRecord(1.0, "sched.request", "d0", {"req_id": "a"}),
        LogRecord(2.0, "sched.request", "d0", {"req_id": "b"}),
        LogRecord(2.5, "sched.alloc", "d0", {"req_id": "b"}),
        LogRecord(4.0, "sched.alloc", "d0", {"req_id": "a"}),
    ]
    assert pair_latencies(
        log, "sched.request", "sched.alloc", lambda r: r.get("req_id")
    ) == [0.5, 3.0]
