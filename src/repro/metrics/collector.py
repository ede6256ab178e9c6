"""Metric derivation from the event log."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.util.eventlog import EventLog

if TYPE_CHECKING:  # pragma: no cover
    from repro.netsim.network import Network


@dataclass(frozen=True, slots=True)
class MigrationStat:
    scheme: str
    latency: float
    src: str | None
    dst: str | None


class MetricsCollector:
    """Post-hoc analysis over one simulation's event log."""

    def __init__(self, log: EventLog, network: "Network | None" = None) -> None:
        self.log = log
        self.network = network

    # ------------------------------------------------------------- makespans

    def app_makespans(self) -> dict[str, float]:
        """app id → submit-to-done time for completed applications."""
        submits = {r.source: r.time for r in self.log.records(category="app.submit")}
        out = {}
        for record in self.log.records(category="app.done"):
            if record.source in submits:
                out[record.source] = record.time - submits[record.source]
        return out

    # -------------------------------------------------------------- scheduler

    def allocation_latencies(self) -> list[float]:
        """Per request: exec.request → exec.reply time.

        Single pass over the log: replies carrying a ``req_id`` pair with
        their exact request; replies without one (older logs) pair FIFO
        with the oldest outstanding request from the same source.
        """
        by_req_id: dict[str, float] = {}
        pending: dict[str, list[tuple[str, float]]] = defaultdict(list)
        out = []
        for record in self.log:
            if record.category == "exec.request":
                req_id = record.get("req_id")
                if req_id is not None:
                    by_req_id[req_id] = record.time
                pending[record.source].append((req_id, record.time))
            elif record.category == "exec.reply":
                req_id = record.get("req_id")
                if req_id is not None and req_id in by_req_id:
                    out.append(record.time - by_req_id.pop(req_id))
                    queue = pending[record.source]
                    for i, (qid, _) in enumerate(queue):
                        if qid == req_id:
                            del queue[i]
                            break
                elif pending[record.source]:
                    qid, requested_at = pending[record.source].pop(0)
                    by_req_id.pop(qid, None)
                    out.append(record.time - requested_at)
        return out

    def bid_counts(self) -> list[int]:
        return [r.get("bids", 0) for r in self.log.records(category="sched.alloc")]

    def queue_waits(self) -> list[float]:
        return [r.get("waited", 0.0) for r in self.log.records(category="sched.retry")]

    # --------------------------------------------------------------- migration

    def migrations(self) -> list[MigrationStat]:
        return [
            MigrationStat(r.get("scheme"), r.get("latency", 0.0), r.get("src"), r.get("dst"))
            for r in self.log.records(category="migration.done")
        ]

    # -------------------------------------------------------------- suspension

    def suspension_spans(self) -> list[float]:
        """Durations of suspend→resume windows per instance (the raw
        material of the §4.3 ripple-effect measurement)."""
        open_suspends: dict[tuple, float] = {}
        spans = []
        for record in self.log:
            key = (record.get("app"), record.get("task"), record.get("rank"))
            if record.category == "task.suspend":
                open_suspends[key] = record.time
            elif record.category == "task.resume" and key in open_suspends:
                spans.append(record.time - open_suspends.pop(key))
        return spans

    # ----------------------------------------------------------------- network

    def message_totals(self) -> dict[str, int]:
        if self.network is None:
            return {}
        return {
            "sent": self.network.messages_sent,
            "delivered": self.network.messages_delivered,
            "bytes": self.network.bytes_sent,
        }

