"""Deterministic-replay harness.

The simulator promises bit-identical behaviour for identical seeds — the
heap's (time, sequence) total order, per-prefix id counters, and named RNG
streams leave no room for nondeterminism. The trace layer must not break
that promise (trace/span ids are minted from the same deterministic id
generator), and this module is the guard: it canonicalizes a whole event
log — *including* every trace field — into a digest, so a test can run a
scenario twice and compare one hash instead of thousands of records.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Iterable

from repro.util.eventlog import EventLog, LogRecord


def canonical_record(record: LogRecord) -> str:
    """A stable one-line rendering of *record* (sorted payload keys,
    ``repr`` values so floats round-trip exactly)."""
    data = record.data  # built on read: once per record
    payload = ",".join(f"{k}={data[k]!r}" for k in sorted(data))
    return f"{record.time!r}|{record.category}|{record.source}|{payload}"


def event_log_digest(log: EventLog | Iterable[LogRecord]) -> str:
    """SHA-256 over the canonical rendering of every record, in order."""
    digest = hashlib.sha256()
    for record in log:
        digest.update(canonical_record(record).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def run_digest(scenario: Callable[[], EventLog]) -> str:
    """Run *scenario* (builds, runs, and returns a fresh simulation's
    event log) and digest the result."""
    return event_log_digest(scenario())


def assert_deterministic(scenario: Callable[[], EventLog], runs: int = 2) -> str:
    """Run *scenario* *runs* times; raise AssertionError with the first
    diverging record if any digest differs. Returns the common digest."""
    logs = [list(scenario()) for _ in range(runs)]
    digests = [event_log_digest(log) for log in logs]
    if len(set(digests)) != 1:
        reference = logs[0]
        for other in logs[1:]:
            for i, (a, b) in enumerate(zip(reference, other)):
                if canonical_record(a) != canonical_record(b):
                    raise AssertionError(
                        f"replay diverged at record {i}:\n"
                        f"  run 0: {canonical_record(a)}\n"
                        f"  run n: {canonical_record(b)}"
                    )
            if len(reference) != len(other):
                raise AssertionError(
                    f"replay diverged in length: {len(reference)} vs {len(other)} records"
                )
        raise AssertionError(f"replay digests differ: {digests}")
    return digests[0]
