"""Metric definitions: what each name means and how it is derived.

``END_TO_END`` and ``PER_LAYER`` are the one list of names, units and
directions; ``BENCHMARK.json`` repeats them (with the bounds) and the
self-tests hold the two in step.  End-to-end values come from an untraced
repetition, per-layer values from a traced one.  Both are plain functions of
what the workload exposes publicly — its event log, counters and results —
plus, for the split of wall time, the tracer's aggregates.  Counters are
read when the timed phase starts and when it ends (``counters``), so boot
traffic is not charged to the workload.
"""

from __future__ import annotations

import resource
from collections import Counter
from time import perf_counter
from typing import Any, Callable, Iterable

# name -> (unit, better)
END_TO_END: dict[str, tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "work_per_s": ("1/s", "higher"),
    "work_per_sim_s": ("1/sim_s", "higher"),
    "peak_rss_mb": ("MiB", "lower"),
}

# name -> (unit, better); a traced repetition reports every name, 0 for a
# layer the workload does not touch
PER_LAYER: dict[str, tuple[str, str]] = {
    "netsim.kernel.events": ("count", "lower"),
    "netsim.kernel.events_per_instance": ("count", "lower"),
    "netsim.kernel.self_s": ("s", "lower"),
    "netsim.kernel.schedule_calls": ("count", "lower"),
    "netsim.kernel.schedule_self_s": ("s", "lower"),
    "netsim.kernel.cancelled_share": ("ratio", "lower"),
    "netsim.network.msgs_sent": ("count", "lower"),
    "netsim.network.msgs_per_instance": ("count", "lower"),
    "netsim.network.bytes_sent": ("B", "lower"),
    "netsim.network.delivered_share": ("ratio", "higher"),
    "netsim.network.retransmits": ("count", "lower"),
    "netsim.network.self_s": ("s", "lower"),
    "netsim.host.self_s": ("s", "lower"),
    "netsim.process.self_s": ("s", "lower"),
    "isis.self_s": ("s", "lower"),
    "isis.hb_ticks": ("count", "lower"),
    "isis.hb_msgs": ("count", "lower"),
    "isis.hb_event_share": ("ratio", "lower"),
    "isis.cbcast_msgs": ("count", "lower"),
    "isis.cbcast_msgs_per_alloc": ("count", "lower"),
    "isis.view_changes": ("count", "lower"),
    "scheduler.self_s": ("s", "lower"),
    "scheduler.requests_led": ("count", "lower"),
    "scheduler.members_polled_per_round": ("count", "lower"),
    "scheduler.us_per_alloc": ("us", "lower"),
    "scheduler.retries": ("count", "lower"),
    "scheduler.alloc_errors": ("count", "lower"),
    "scheduler.queue_wait_p95_sim_s": ("sim_s", "lower"),
    "scheduler.alloc_latency_p50_sim_s": ("sim_s", "lower"),
    "scheduler.alloc_latency_p95_sim_s": ("sim_s", "lower"),
    "runtime.self_s": ("s", "lower"),
    "runtime.dispatches": ("count", "lower"),
    "runtime.us_per_dispatch": ("us", "lower"),
    "runtime.stale_commits": ("count", "lower"),
    "runtime.sim_makespan_s": ("sim_s", "lower"),
    "runtime.app_turnaround_p50_sim_s": ("sim_s", "lower"),
    "runtime.app_turnaround_p90_sim_s": ("sim_s", "lower"),
    "taskgraph.self_s": ("s", "lower"),
    "taskgraph.predecessor_calls_per_instance": ("count", "lower"),
    "channels.msgs": ("count", "lower"),
    "channels.self_s": ("s", "lower"),
    "vmpi.sends": ("count", "lower"),
    "vmpi.self_s": ("s", "lower"),
    "migration.failover.strands": ("count", "lower"),
    "migration.failover.redispatches": ("count", "lower"),
    "migration.failover.lease_expired": ("count", "lower"),
    "migration.failover.gave_up": ("count", "lower"),
    "migration.failover.crash_to_redispatch_p50_sim_s": ("sim_s", "lower"),
    "migration.failover.crash_to_redispatch_p90_sim_s": ("sim_s", "lower"),
    "faults.injected": ("count", "lower"),
    "core.tenancy.held": ("count", "lower"),
    "core.tenancy.max_admission_wait_sim_s": ("sim_s", "lower"),
    "telemetry.self_s": ("s", "lower"),
    "telemetry.samples": ("count", "lower"),
    "util.eventlog.records": ("count", "lower"),
    "util.eventlog.records_per_instance": ("count", "lower"),
    "util.eventlog.self_s": ("s", "lower"),
    "netexec.codec.encode_us_per_frame": ("us", "lower"),
    "netexec.codec.decode_us_per_frame": ("us", "lower"),
    "netexec.codec.mb_per_s": ("MB/s", "higher"),
    "netexec.transport.frames": ("count", "lower"),
    "netexec.transport.frames_per_task": ("count", "lower"),
    "netexec.transport.bytes_per_task": ("B", "lower"),
    "netexec.supervisor.alloc_rtt_p50_ms": ("ms", "lower"),
    "netexec.supervisor.dispatch_rtt_p50_ms": ("ms", "lower"),
    "netexec.supervisor.app_rtt_p50_ms": ("ms", "lower"),
    "netexec.supervisor.app_rtt_p95_ms": ("ms", "lower"),
    "netexec.supervisor.app_rtt_p99_ms": ("ms", "lower"),
    "netexec.supervisor.cpu_ms_per_task": ("ms", "lower"),
    "netexec.daemonhost.cpu_ms_per_task": ("ms", "lower"),
    "netexec.daemonhost.spawn_to_hello_s": ("s", "lower"),
    "perfbench.trace_overhead": ("ratio", "lower"),
    "perfbench.unattributed_share": ("ratio", "lower"),
}

_HEARTBEATS = ("Heartbeat", "CoordBeat")
_CBCASTS = ("CBcastMsg", "CBcastAck")


def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..100); 0.0 for no samples."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = -(-len(ordered) * q // 100)  # ceiling
    return ordered[max(1, int(rank)) - 1]


def crash_to_redispatch(records: Iterable[Any]) -> list[float]:
    """For every ``recovery.redispatch``: its time minus the latest
    ``fault.crash`` of its ``src`` host — the whole outage as a task sees it
    (failure detection or lease expiry + strand + re-dispatch).  *records*
    are in time order.  A re-dispatch whose source host never crashed (a
    partition expired the lease) has no crash to pair with and is skipped."""
    last_crash: dict[str, float] = {}
    out: list[float] = []
    for record in records:
        if record.category == "fault.crash":
            last_crash[record.source] = record.time
        elif record.category == "recovery.redispatch":
            crashed_at = last_crash.get(record.get("src"))
            if crashed_at is not None:
                out.append(record.time - crashed_at)
    return out


def pair_latencies(
    records: Iterable[Any], opens: str, closes: str, key: Callable[[Any], Any]
) -> list[float]:
    """Time from each *opens* record to the first *closes* record that has
    the same key."""
    opened: dict[Any, float] = {}
    out: list[float] = []
    for record in records:
        if record.category == opens:
            opened[key(record)] = record.time
        elif record.category == closes:
            t0 = opened.pop(key(record), None)
            if t0 is not None:
                out.append(record.time - t0)
    return out


def counter_total(registry: Any, name: str) -> float:
    """Sum of a telemetry counter family over its label children."""
    family = registry.get(name) if registry is not None else None
    if family is None:
        return 0.0
    return sum(child.value for _labels, child in family.samples())


def counters(workload: Any) -> Counter:
    """The program's public cumulative counters, as one flat Counter; taken
    before and after the timed phase, the difference is the workload's."""
    sim = workload.sim
    out: Counter = Counter(
        {f"log:{name}": n for name, n in sim.log.category_counts().items()}
    )
    if workload.backend == "network":
        return out
    vce = workload.vce
    network = vce.network
    out["events"] = sim.events_processed
    out["msgs_sent"] = network.messages_sent
    out["msgs_delivered"] = network.messages_delivered
    out["bytes_sent"] = network.bytes_sent
    out["retransmits"] = network.retransmissions
    # from the log, not the daemons' requests_led/members_polled: a bounced
    # daemon is a fresh object and its counters start again
    out["delegated_members"] = sum(
        record.get("members") for record in sim.log.records(category="sched.delegate")
    )
    out["chan_msgs"] = counter_total(sim.telemetry, "chan_messages_total")
    out["vmpi_sends"] = counter_total(sim.telemetry, "vmpi_sends_total")
    out["faults"] = sum(vce.chaos_controller.report().values())
    out["samples"] = vce.telemetry.sampler.ticks if vce.telemetry is not None else 0
    return out


def end_to_end(outcome: Any, wall_s: float, setup_s: float, rss_mb: float) -> dict:
    values = {
        "setup_s": setup_s,
        "work_per_s": outcome.work / wall_s,
        "work_per_sim_s": outcome.work_per_sim_s,
        "peak_rss_mb": rss_mb,
    }
    return {
        name: {"value": values[name], "unit": unit}
        for name, (unit, _better) in END_TO_END.items()
    }


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(
    workload: Any, outcome: Any, tracer: Any, delta: Counter, wall_s: float
) -> dict:
    """Every PER_LAYER value of one traced repetition; *delta* is
    ``counters`` after the timed phase minus before it.
    ``perfbench.trace_overhead`` is filled in by the runner, which knows
    the untraced wall time of the same seed."""
    v = dict.fromkeys(PER_LAYER, 0.0)
    log = workload.sim.log
    records = sum(n for name, n in delta.items() if name.startswith("log:"))

    v["runtime.sim_makespan_s"] = outcome.sim_makespan_s
    v["runtime.app_turnaround_p50_sim_s"] = percentile(outcome.turnarounds, 50)
    v["runtime.app_turnaround_p90_sim_s"] = percentile(outcome.turnarounds, 90)
    v["runtime.dispatches"] = delta["log:runtime.dispatch"]
    v["runtime.stale_commits"] = delta["log:runtime.stale_commit"]
    v["util.eventlog.records"] = records
    v["util.eventlog.records_per_instance"] = _ratio(records, outcome.instances)
    v["migration.failover.strands"] = delta["log:recovery.strand"]
    v["migration.failover.redispatches"] = delta["log:recovery.redispatch"]
    v["migration.failover.lease_expired"] = delta["log:recovery.lease_expired"]
    v["migration.failover.gave_up"] = delta["log:recovery.gave_up"]
    outages = crash_to_redispatch(
        sorted(
            log.records(category="fault.crash")
            + log.records(category="recovery.redispatch"),
            key=lambda record: record.time,
        )
    )
    v["migration.failover.crash_to_redispatch_p50_sim_s"] = percentile(outages, 50)
    v["migration.failover.crash_to_redispatch_p90_sim_s"] = percentile(outages, 90)
    v["perfbench.unattributed_share"] = max(0.0, 1.0 - tracer.root_s / wall_s)
    if workload.backend == "network":
        _network_layers(v, workload, tracer)
    else:
        _simulator_layers(v, workload, outcome, tracer, delta)
    return {
        name: {"value": float(v[name]), "unit": unit}
        for name, (unit, _better) in PER_LAYER.items()
    }


def _simulator_layers(
    v: dict, workload: Any, outcome: Any, tracer: Any, delta: Counter
) -> None:
    instances = outcome.instances
    self_s = tracer.layer_self
    events = delta["events"]
    allocations = delta["log:sched.alloc"]
    v["netsim.kernel.events"] = events
    v["netsim.kernel.events_per_instance"] = _ratio(events, instances)
    v["netsim.kernel.self_s"] = self_s("netsim.kernel")
    v["netsim.kernel.schedule_calls"] = tracer.scheduled
    v["netsim.kernel.schedule_self_s"] = self_s("netsim.kernel.schedule")
    v["netsim.kernel.cancelled_share"] = _ratio(tracer.timer_cancels, tracer.scheduled)
    v["netsim.network.msgs_sent"] = delta["msgs_sent"]
    v["netsim.network.msgs_per_instance"] = _ratio(delta["msgs_sent"], instances)
    v["netsim.network.bytes_sent"] = delta["bytes_sent"]
    v["netsim.network.delivered_share"] = _ratio(delta["msgs_delivered"], delta["msgs_sent"])
    v["netsim.network.retransmits"] = delta["retransmits"]
    v["netsim.network.self_s"] = self_s("netsim.network")
    v["netsim.host.self_s"] = self_s("netsim.host")
    v["netsim.process.self_s"] = self_s("netsim.process")

    hb_ticks = tracer.timer_keys["isis.member:hb"]
    hb_msgs = sum(tracer.payload_types[t] for t in _HEARTBEATS)
    cbcasts = sum(tracer.payload_types[t] for t in _CBCASTS)
    v["isis.self_s"] = self_s("isis")
    v["isis.hb_ticks"] = hb_ticks
    v["isis.hb_msgs"] = hb_msgs
    # a tick is one kernel event, and so is the delivery of each beat it sends
    v["isis.hb_event_share"] = _ratio(hb_ticks + hb_msgs, events)
    v["isis.cbcast_msgs"] = cbcasts
    v["isis.cbcast_msgs_per_alloc"] = _ratio(cbcasts, allocations)
    v["isis.view_changes"] = delta["log:isis.view"]

    collector = workload.vce.metrics()
    latencies = collector.allocation_latencies()
    v["scheduler.self_s"] = self_s("scheduler")
    rounds = delta["log:sched.request"]
    v["scheduler.requests_led"] = rounds
    # a hierarchical round logs the members of every cell it polls; a flat
    # round polls its whole group and logs no count
    polled = delta["delegated_members"] or rounds * len(workload.vce.daemons)
    v["scheduler.members_polled_per_round"] = _ratio(polled, rounds)
    v["scheduler.us_per_alloc"] = _ratio(self_s("scheduler") * 1e6, allocations)
    v["scheduler.retries"] = delta["log:sched.retry"] + delta["log:exec.retry_request"]
    v["scheduler.alloc_errors"] = delta["log:sched.alloc_error"]
    v["scheduler.queue_wait_p95_sim_s"] = percentile(collector.queue_waits(), 95)
    v["scheduler.alloc_latency_p50_sim_s"] = percentile(latencies, 50)
    v["scheduler.alloc_latency_p95_sim_s"] = percentile(latencies, 95)

    v["runtime.self_s"] = self_s("runtime")
    v["runtime.us_per_dispatch"] = _ratio(self_s("runtime") * 1e6, v["runtime.dispatches"])
    v["taskgraph.self_s"] = self_s("taskgraph")
    v["taskgraph.predecessor_calls_per_instance"] = _ratio(
        tracer.entry_calls["TaskGraph.predecessors"], instances
    )
    v["channels.msgs"] = delta["chan_msgs"]
    v["channels.self_s"] = self_s("channels")
    v["vmpi.sends"] = delta["vmpi_sends"]
    # a task program is stepped inside TaskInstance, so where the program
    # calls vMPI this is the vMPI data path; it is a part of
    # runtime.self_s, not an addition to it
    v["vmpi.self_s"] = self_s("runtime.instance") if delta["vmpi_sends"] else 0.0
    v["faults.injected"] = delta["faults"]
    report = getattr(workload, "report", None)
    if report is not None:
        v["core.tenancy.held"] = report.held
        v["core.tenancy.max_admission_wait_sim_s"] = report.max_admission_wait
    v["telemetry.self_s"] = self_s("telemetry")
    v["telemetry.samples"] = delta["samples"]
    v["util.eventlog.self_s"] = self_s("util.eventlog")


def _network_layers(v: dict, workload: Any, tracer: Any) -> None:
    from repro.netexec import codec

    # the codec, timed over exactly the frames this run put on the wire
    frames = tracer.frames
    t0 = perf_counter()
    encoded = [codec.encode(message) for message in frames]
    encode_s = perf_counter() - t0
    decoder = codec.FrameDecoder()
    t0 = perf_counter()
    for blob in encoded:
        for _message in decoder.feed(blob):
            pass
    decode_s = perf_counter() - t0
    total_bytes = sum(len(blob) for blob in encoded)
    # frames were captured over warm-up and timed applications alike
    tasks = 2 * (workload.n_warmup + workload.n_apps)
    v["netexec.codec.encode_us_per_frame"] = _ratio(encode_s * 1e6, len(frames))
    v["netexec.codec.decode_us_per_frame"] = _ratio(decode_s * 1e6, len(frames))
    v["netexec.codec.mb_per_s"] = _ratio(2 * total_bytes / 1e6, encode_s + decode_s)
    v["netexec.transport.frames"] = len(frames)
    v["netexec.transport.frames_per_task"] = len(frames) / tasks
    v["netexec.transport.bytes_per_task"] = total_bytes / tasks

    # record times are the supervisor's clock: wall seconds x rate
    to_ms = 1e3 / workload.rate
    timed = [r for r in workload.sim.log if r.time >= workload.timed_from]
    alloc = pair_latencies(
        timed, "sched.request", "sched.alloc", lambda r: r.get("req_id")
    )
    dispatch = pair_latencies(
        timed, "runtime.dispatch", "task.done",
        lambda r: (r.get("app", r.source), r.get("task"), r.get("rank")),
    )
    rtts_ms = [rtt * 1e3 for rtt in workload.rtts_s]
    v["netexec.supervisor.alloc_rtt_p50_ms"] = percentile(alloc, 50) * to_ms
    v["netexec.supervisor.dispatch_rtt_p50_ms"] = percentile(dispatch, 50) * to_ms
    v["netexec.supervisor.app_rtt_p50_ms"] = percentile(rtts_ms, 50)
    v["netexec.supervisor.app_rtt_p95_ms"] = percentile(rtts_ms, 95)
    v["netexec.supervisor.app_rtt_p99_ms"] = percentile(rtts_ms, 99)
    v["netexec.supervisor.cpu_ms_per_task"] = (
        workload.supervisor_cpu_s * 1e3 / (2 * workload.n_apps)
    )
    # the daemons have been waited for by now (close() ran)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    v["netexec.daemonhost.cpu_ms_per_task"] = (
        (children.ru_utime + children.ru_stime) * 1e3 / tasks
    )
    v["netexec.daemonhost.spawn_to_hello_s"] = workload.boot_s
