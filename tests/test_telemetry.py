"""Tests for repro.telemetry: registry, series, exporters, sampler,
watchdog, and the `repro top` renderer."""

import json
import math
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    VCEConfig,
    VirtualComputingEnvironment,
    heterogeneous_cluster,
    workstation_cluster,
)
from repro.faults.schedule import FaultSchedule
from repro.machines import ConstantLoad, MachineClass, TraceLoad
from repro.scheduler.execution_program import RunState
from repro.taskgraph import TaskGraph, TaskNode
from repro.telemetry import (
    ClusterSampler,
    Histogram,
    HealthWatchdog,
    MetricsRegistry,
    QuantileSketch,
    RingSeries,
    SeriesStore,
    WatchdogConfig,
    exponential_bounds,
    registry_from_snapshot,
    render_top,
    snapshot,
    straggler_severity,
    to_prometheus,
)
from repro.telemetry.registry import DEFAULT_FACTOR
from repro.telemetry.sampler import KEEPALIVE_TICKS
from repro.trace.replay import event_log_digest
from repro.util.errors import ConfigurationError
from repro.vmpi import Compute
from repro.workloads import WEATHER_SCRIPT, weather_programs

from tests.helpers_telemetry import assert_matches_reference, changes, health_records


# --------------------------------------------------------------- registry


class TestExponentialBounds:
    def test_ladder(self):
        bounds = exponential_bounds(1.0, 2.0, 4)
        assert bounds == (1.0, 2.0, 4.0, 8.0)

    def test_defaults_span_milliseconds_to_days(self):
        bounds = exponential_bounds()
        assert bounds[0] == pytest.approx(1e-3)
        assert bounds[-1] > 86_400  # > 1 simulated day

    def test_bounds_strictly_increasing(self):
        bounds = exponential_bounds()
        assert all(a < b for a, b in zip(bounds, bounds[1:]))

    @pytest.mark.parametrize(
        "start,factor,count", [(0.0, 2.0, 4), (1.0, 1.0, 4), (1.0, 2.0, 0)]
    )
    def test_bad_ladders_rejected(self, start, factor, count):
        with pytest.raises(ConfigurationError):
            exponential_bounds(start, factor, count)


class TestCounterGauge:
    def test_counter_monotonic(self):
        reg = MetricsRegistry()
        c = reg.counter("reqs_total", "requests")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ConfigurationError):
            c.inc(-1)

    def test_gauge_moves_both_ways(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth", "queue depth")
        g.set(4)
        g.dec()
        g.inc(0.5)
        assert g.value == 3.5

    def test_get_or_create_returns_same_family(self):
        reg = MetricsRegistry()
        assert reg.counter("x_total") is reg.counter("x_total")

    def test_kind_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x_total")
        with pytest.raises(ConfigurationError):
            reg.gauge("x_total")

    def test_labels_create_children(self):
        reg = MetricsRegistry()
        fam = reg.gauge("host_load", "load", labels=("host",))
        fam.labels("ws0").set(0.5)
        fam.labels("ws1").set(0.9)
        assert [(v, c.value) for v, c in fam.samples()] == [
            (("ws0",), 0.5),
            (("ws1",), 0.9),
        ]

    def test_unlabelled_child_is_created_on_first_use_only(self):
        """A hot site updates ``family.child or family.solo()``: the same
        object the delegating methods update, and none until something was
        counted (a declared-but-unused counter exports no sample)."""
        reg = MetricsRegistry()
        fam = reg.counter("x_total", "xs")
        assert fam.child is None and list(fam.samples()) == []
        assert "vce_x_total 0" not in to_prometheus(reg)
        (fam.child or fam.solo()).inc()
        fam.inc(2)
        assert fam.child is fam.solo() is fam.labels()
        assert fam.value == 3 and [v for v, _ in fam.samples()] == [()]
        labelled = reg.counter("y_total", labels=("a",))
        with pytest.raises(ConfigurationError):
            labelled.solo()

    def test_wrong_label_arity_rejected(self):
        reg = MetricsRegistry()
        fam = reg.counter("x_total", labels=("a", "b"))
        with pytest.raises(ConfigurationError):
            fam.labels("only-one")


class TestHistogram:
    def test_bucket_boundaries_inclusive_upper(self):
        h = Histogram(exponential_bounds(1.0, 2.0, 3))  # bounds 1, 2, 4
        h.observe(1.0)  # lands in bucket le=1
        h.observe(1.5)  # le=2
        h.observe(2.0)  # le=2 (upper bound inclusive)
        h.observe(4.0)  # le=4
        h.observe(9.0)  # overflow
        assert h.bucket_counts == [1, 2, 1]
        assert h.overflow == 1
        assert h.count == 5
        assert h.sum == pytest.approx(17.5)

    def test_cumulative_ends_with_inf_total(self):
        h = Histogram(exponential_bounds(1.0, 2.0, 3))
        for v in (0.5, 3.0, 100.0):
            h.observe(v)
        cumulative = h.cumulative_buckets()
        assert cumulative[-1] == (math.inf, 3)
        counts = [c for _, c in cumulative]
        assert counts == sorted(counts)

    def test_quantile_relative_error_bound(self):
        # the interpolated quantile is off by at most factor-1 (relative)
        rng = random.Random(42)
        samples = [rng.uniform(0.01, 50.0) for _ in range(2000)]
        h = Histogram(exponential_bounds())
        for s in samples:
            h.observe(s)
        samples.sort()
        for q in (0.25, 0.5, 0.9, 0.99):
            exact = samples[int(q * len(samples)) - 1]
            estimate = h.quantile(q)
            assert abs(estimate - exact) / exact <= DEFAULT_FACTOR - 1.0 + 0.01

    def test_quantile_clamped_to_observed_range(self):
        h = Histogram(exponential_bounds())
        h.observe(3.0)
        assert h.quantile(0.0) == 3.0
        assert h.quantile(1.0) == 3.0

    def test_empty_quantile_zero(self):
        h = Histogram(exponential_bounds())
        assert h.quantile(0.5) == 0.0
        assert h.mean == 0.0

    def test_quantile_range_checked(self):
        h = Histogram(exponential_bounds())
        with pytest.raises(ConfigurationError):
            h.quantile(1.5)


class TestQuantileSketch:
    def test_exact_below_five_observations(self):
        s = QuantileSketch(0.5)
        for v in (5.0, 1.0, 3.0):
            s.observe(v)
        assert s.value == 3.0

    def test_p2_median_error_bound(self):
        rng = random.Random(7)
        samples = [rng.uniform(0.0, 100.0) for _ in range(2000)]
        s = QuantileSketch(0.5)
        for v in samples:
            s.observe(v)
        exact = sorted(samples)[1000]
        # P² converges to the true quantile; allow a loose 10% of range
        assert abs(s.value - exact) <= 10.0

    def test_p2_p90_on_skewed_data(self):
        rng = random.Random(11)
        samples = [rng.expovariate(1.0) for _ in range(5000)]
        s = QuantileSketch(0.9)
        for v in samples:
            s.observe(v)
        exact = sorted(samples)[4500]
        assert abs(s.value - exact) / exact <= 0.25

    def test_q_range_checked(self):
        with pytest.raises(ConfigurationError):
            QuantileSketch(1.0)

    def test_registry_sketch_family(self):
        reg = MetricsRegistry()
        fam = reg.sketch("lat_p50", q=0.5, help_text="median latency")
        for v in range(1, 11):
            fam.observe(float(v))
        assert 3.0 <= fam.value <= 8.0


# ----------------------------------------------------------------- series


class TestRingSeries:
    def test_capacity_evicts_oldest(self):
        s = RingSeries(capacity=3)
        for t in range(5):
            s.append(float(t), float(t * 10))
        assert s.values() == [20.0, 30.0, 40.0]
        assert len(s) == 3 and s.capacity == 3

    def test_latest_tail_window(self):
        s = RingSeries()
        for t in range(4):
            s.append(float(t), float(t))
        assert s.latest() == 3.0
        assert s.tail(2) == [2.0, 3.0]
        assert s.window(since=2.0) == [(2.0, 2.0), (3.0, 3.0)]

    def test_delta_counter_window(self):
        s = RingSeries()
        for t, v in enumerate([0, 1, 1, 4, 9]):
            s.append(float(t), float(v))
        assert s.delta(2) == 8.0  # 9 - 1
        assert s.delta(10) == 0.0  # not enough points

    def test_spark_shape(self):
        s = RingSeries()
        for t, v in enumerate([0.0, 0.5, 1.0]):
            s.append(float(t), v)
        spark = s.spark()
        assert len(spark) == 3
        assert spark[0] == "▁" and spark[-1] == "█"

    def test_spark_flat_series(self):
        s = RingSeries()
        for t in range(4):
            s.append(float(t), 2.0)
        assert s.spark() == "▁▁▁▁"

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            RingSeries(0)


class TestSeriesStore:
    def test_get_or_create_and_keys(self):
        store = SeriesStore(capacity=4)
        store.append("host_load", "ws0", 0.0, 0.5)
        store.append("host_load", "ws1", 0.0, 0.7)
        assert store.keys_for("host_load") == ["ws0", "ws1"]
        assert store.series("host_load", "ws0").latest() == 0.5
        assert ("host_load", "ws0") in store

    def test_empty_store_is_usable_when_passed_in(self):
        # regression: SeriesStore defines __len__, so `store or default()`
        # used to silently replace an empty (falsy) store with a new one
        reg = MetricsRegistry()
        store = SeriesStore()
        sampler = ClusterSampler("t", reg, runtime=None, daemons={}, store=store)
        assert sampler.store is store


# -------------------------------------------------------------- exporters


def _populated_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.counter("reqs_total", "requests", labels=("kind",)).labels("get").inc(7)
    reg.gauge("host_load", "load", labels=("host",)).labels("ws0").set(0.25)
    hist = reg.histogram("dur_seconds", "durations")
    for v in (0.002, 0.5, 3.0, 200.0):
        hist.observe(v)
    sketch = reg.sketch("lat_p50", q=0.5, help_text="median")
    for v in range(10):
        sketch.observe(float(v))
    return reg


class TestPrometheusText:
    def test_format_shape(self):
        text = to_prometheus(_populated_registry())
        assert '# TYPE vce_reqs_total counter' in text
        assert 'vce_reqs_total{kind="get"} 7' in text
        assert 'vce_host_load{host="ws0"} 0.25' in text
        assert '# TYPE vce_dur_seconds histogram' in text
        assert 'le="+Inf"} 4' in text
        assert "vce_dur_seconds_sum" in text and "vce_dur_seconds_count 4" in text
        assert "# TYPE vce_lat_p50 gauge" in text  # sketches expose a gauge

    def test_label_escaping(self):
        reg = MetricsRegistry()
        reg.counter("x_total", labels=("k",)).labels('a"b\\c').inc()
        text = to_prometheus(reg)
        assert r'k="a\"b\\c"' in text

    def test_custom_prefix(self):
        reg = MetricsRegistry()
        reg.counter("x_total").inc()
        assert "myapp_x_total 1" in to_prometheus(reg, prefix="myapp_")


class TestSnapshotRoundTrip:
    def test_json_round_trip_preserves_prometheus_text(self):
        reg = _populated_registry()
        data = json.loads(json.dumps(snapshot(reg, time=12.5)))
        assert data["time"] == 12.5
        rebuilt = registry_from_snapshot(data)
        assert to_prometheus(rebuilt) == to_prometheus(reg)

    def test_round_trip_preserves_quantiles(self):
        reg = _populated_registry()
        rebuilt = registry_from_snapshot(snapshot(reg))
        original = reg.get("dur_seconds").quantile(0.5)
        assert rebuilt.get("dur_seconds").quantile(0.5) == original

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            registry_from_snapshot(
                {"metrics": {"x": {"kind": "mystery", "series": [{"labels": []}]}}}
            )


# --------------------------------------------------------------- watchdog


class _StubDaemon:
    """Just enough daemon surface for queue/starvation rules."""

    def __init__(self, items=()):
        self.membership = SimpleNamespace(is_coordinator=bool(items))
        self._items = list(items)

    @property
    def pending_queue(self):
        return self

    def items(self):
        return list(self._items)

    def __len__(self):
        return len(self._items)


class _QueueItem:
    def __init__(self, req_id, enqueued_at, app="app", attempts=1):
        self.enqueued_at = enqueued_at
        self.attempts = attempts
        self.request = type("Req", (), {"req_id": req_id, "app": app})()


class TestWatchdogRules:
    def _watchdog(self, daemons=None, config=None):
        reg = MetricsRegistry()
        events = []
        dog = HealthWatchdog(
            reg,
            runtime=None,
            daemons=daemons or {},
            emit=lambda category, **data: events.append((category, data)),
            config=config,
        )
        return dog, events, reg

    def test_queue_saturation_needs_consecutive_ticks(self):
        cfg = WatchdogConfig(queue_depth_threshold=4, queue_depth_ticks=3)
        dog, events, _ = self._watchdog(daemons={"ws0": _StubDaemon()}, config=cfg)
        store = SeriesStore()
        for t, depth in enumerate([5, 5]):
            store.append("daemon_queue_depth", "ws0", float(t), depth)
        assert dog.evaluate(1.0, store) == []  # only two ticks so far
        assert dog.next_deadline == 2.0  # raised then, if the queue stays deep
        store.append("daemon_queue_depth", "ws0", 2.0, 5)
        raised = dog.evaluate(2.0, store)
        assert [e.rule for e in raised] == ["queue_saturation"]
        assert raised[0].severity == "warning"

    def test_queue_saturation_critical_at_double_threshold(self):
        cfg = WatchdogConfig(queue_depth_threshold=4, queue_depth_ticks=2)
        dog, _, _ = self._watchdog(daemons={"ws0": _StubDaemon()}, config=cfg)
        store = SeriesStore()
        store.append("daemon_queue_depth", "ws0", 0.0, 8)
        store.append("daemon_queue_depth", "ws0", 1.0, 9)
        raised = dog.evaluate(1.0, store)
        assert raised[0].severity == "critical"

    def test_edge_triggered_raise_and_clear(self):
        cfg = WatchdogConfig(queue_depth_threshold=2, queue_depth_ticks=1)
        dog, events, reg = self._watchdog(daemons={"ws0": _StubDaemon()}, config=cfg)
        store = SeriesStore()
        store.append("daemon_queue_depth", "ws0", 0.0, 5)
        assert len(dog.evaluate(0.0, store)) == 1
        store.append("daemon_queue_depth", "ws0", 1.0, 5)
        assert dog.evaluate(1.0, store) == []  # still active, not re-raised
        assert len(dog.active()) == 1
        store.append("daemon_queue_depth", "ws0", 2.0, 0)
        assert dog.evaluate(2.0, store) == []
        assert dog.active() == []
        categories = [c for c, _ in events]
        assert categories == ["health.queue_saturation", "health.cleared"]
        fam = reg.get("health_events_total")
        total = sum(child.value for _, child in fam.samples())
        assert total == 2  # one raise + one clear

    def test_bid_starvation(self):
        daemon = _StubDaemon(items=[_QueueItem("req-1", enqueued_at=0.0)])
        dog, events, _ = self._watchdog(daemons={"ws0": daemon})
        raised = dog.evaluate(31.0, SeriesStore())
        assert [e.rule for e in raised] == ["bid_starvation"]
        assert raised[0].detail["waited"] == 31.0

    def test_bid_starvation_not_before_deadline(self):
        daemon = _StubDaemon(items=[_QueueItem("req-1", enqueued_at=0.0)])
        dog, _, _ = self._watchdog(daemons={"ws0": daemon})
        assert dog.evaluate(10.0, SeriesStore()) == []

    def test_alloc_error_burst(self):
        cfg = WatchdogConfig(alloc_error_window=3, alloc_error_threshold=5)
        dog, _, _ = self._watchdog(config=cfg)
        store = SeriesStore()
        for t, total in enumerate([0, 1, 2, 8]):  # +6 over the last 3 ticks
            store.append("sched_alloc_errors_total", "", float(t), total)
        raised = dog.evaluate(3.0, store)
        assert [e.rule for e in raised] == ["alloc_errors"]
        assert raised[0].severity == "critical"

    def test_next_deadline_is_when_a_verdict_can_change_without_an_event(self):
        cfg = WatchdogConfig(queue_depth_threshold=4, queue_depth_ticks=3)
        waiting = _StubDaemon(items=[_QueueItem("req-1", enqueued_at=2.0)])
        dog, _, _ = self._watchdog(daemons={"ws0": waiting}, config=cfg)
        store = SeriesStore()
        assert dog.next_deadline == math.inf
        store.append("daemon_queue_depth", "ws0", 10.0, 0)
        assert dog.evaluate(10.0, store) == []
        assert dog.next_deadline == 32.0  # req-1 starves at enqueued_at + 30
        store.append("daemon_queue_depth", "ws0", 11.0, 6)
        dog.evaluate(11.0, store)
        assert dog.next_deadline == 13.0  # deep at 11, 12 and 13: saturated
        # a sample-and-hold series: no point at 12, the depth held from 11
        store.append("daemon_queue_depth", "ws0", 13.0, 6)
        assert [e.rule for e in dog.evaluate(13.0, store)] == ["queue_saturation"]
        assert dog.next_deadline == 13.0  # the record just written is a change
        store.append("daemon_queue_depth", "ws0", 14.0, 6)
        assert dog.evaluate(14.0, store) == []
        assert dog.next_deadline == 32.0  # an active condition needs no wake

    def test_event_history_bounded(self):
        cfg = WatchdogConfig(queue_depth_threshold=1, queue_depth_ticks=1)
        dog, _, _ = self._watchdog(daemons={"ws0": _StubDaemon()}, config=cfg)
        dog.max_events = 10
        store = SeriesStore()
        for t in range(40):  # alternate raise/clear
            store.append("daemon_queue_depth", "ws0", float(t), t % 2 * 5)
            dog.evaluate(float(t), store)
        assert len(dog.events) <= 10


class TestStragglerRule:
    def _completed(self, durations):
        h = Histogram(exponential_bounds())
        for d in durations:
            h.observe(d)
        return h

    def test_fires_past_factor_times_median(self):
        cfg = WatchdogConfig(straggler_factor=3.0)
        completed = self._completed([10.0, 10.0, 10.0, 10.0])
        assert straggler_severity(31.0, completed, cfg) == "warning"
        assert straggler_severity(100.0, completed, cfg) == "critical"
        assert straggler_severity(20.0, completed, cfg) is None

    def test_needs_baseline(self):
        cfg = WatchdogConfig(straggler_min_completed=3)
        assert straggler_severity(100.0, self._completed([10.0]), cfg) is None

    def test_grace_period(self):
        cfg = WatchdogConfig(straggler_min_elapsed=1.0)
        completed = self._completed([0.01, 0.01, 0.01, 0.01])
        assert straggler_severity(0.5, completed, cfg) is None

    @settings(max_examples=200, deadline=None)
    @given(
        base=st.floats(min_value=0.01, max_value=1000.0),
        n=st.integers(min_value=3, max_value=40),
        spread=st.floats(min_value=1.0, max_value=1.8),
        elapsed_frac=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_never_fires_on_uniform_workload(self, base, n, spread, elapsed_frac):
        """On a no-straggler workload — every sibling duration within
        `spread` (< straggler_factor) of the fastest — an in-flight
        instance that has run no longer than the slowest sibling is never
        flagged, for any elapsed time up to that maximum."""
        cfg = WatchdogConfig()
        completed = self._completed(
            [base * (1.0 + (spread - 1.0) * i / max(1, n - 1)) for i in range(n)]
        )
        elapsed = elapsed_frac * base * spread
        assert straggler_severity(elapsed, completed, cfg) is None


# ----------------------------------------------- sampler + top integration


@pytest.fixture(scope="module")
def weather_vce():
    vce = VirtualComputingEnvironment(
        # a fast sampling interval so short runs still collect many ticks
        heterogeneous_cluster(), VCEConfig(seed=3, telemetry_interval=1.0)
    ).boot()
    run = vce.run_script(WEATHER_SCRIPT, weather_programs(), name="snow")
    vce.run_to_completion(run)
    return vce, run


class TestSamplerIntegration:
    def test_sampler_ticks_and_host_gauges(self, weather_vce):
        vce, _ = weather_vce
        telemetry = vce.telemetry
        assert telemetry is not None
        assert telemetry.sampler.ticks > 10
        load = telemetry.registry.get("host_load")
        hosts = {values[0] for values, _ in load.samples()}
        assert {"ws0", "simd0", "mimd0"} <= hosts

    def test_task_duration_histograms_fed(self, weather_vce):
        vce, _ = weather_vce
        durations = vce.telemetry.registry.get("task_duration_seconds")
        predictor = durations.labels("predictor")
        assert predictor.count == 1
        assert predictor.quantile(0.5) > 0

    def test_run_completes_despite_daemon_timer(self, weather_vce):
        # the sampler's grid points must never keep the simulation alive
        vce, run = weather_vce
        assert run.state.value == "done"

    def test_series_recorded(self, weather_vce):
        vce, _ = weather_vce
        store = vce.telemetry.store
        assert len(store.series("host_load", "ws0")) > 10
        assert store.series("net_messages_sent", "").latest() > 0

    def test_no_health_events_on_healthy_run(self, weather_vce):
        vce, _ = weather_vce
        assert vce.telemetry.watchdog.active() == []

    def test_render_top_frame(self, weather_vce):
        vce, _ = weather_vce
        frame = vce.telemetry.render()
        assert "ws0" in frame and "load" in frame
        assert "predictor" in frame and "p95" in frame
        assert "health: ok" in frame

    def test_parked_state_and_heartbeat_share_visible(self):
        """A cluster that silently stops parking shows here first: the
        gauges split the members into parked and awake, and the header
        carries the share of kernel events that were heartbeats."""
        vce = VirtualComputingEnvironment(
            heterogeneous_cluster(), VCEConfig(seed=3, telemetry_interval=1.0)
        ).boot()
        frame = vce.telemetry.render()
        registry = vce.telemetry.registry
        members = len(vce.daemons)
        assert registry.get("isis_parked").value == members
        assert registry.get("isis_awake").value == 0
        assert f"isis: {members} parked / 0 awake" in frame
        ticks = registry.get("isis_hb_ticks_total").value
        assert 0 < ticks
        # a latency factor other than 1 keeps everyone awake, and it shows
        vce.network.set_latency_factor(math.nextafter(1.0, 2.0))
        vce.run(until=vce.sim.now + 10.0)
        frame = vce.telemetry.render()
        assert registry.get("isis_parked").value == 0
        assert registry.get("isis_awake").value == members
        assert f"isis: 0 parked / {members} awake" in frame
        awake_ticks = registry.get("isis_hb_ticks_total").value
        beats = registry.get("isis_beats_sent_total").value
        assert awake_ticks > ticks + 10 * members and 0 < beats
        share = (awake_ticks + beats) / vce.sim.events_processed
        assert f"heartbeat share: {share * 100:.1f}%" in frame
        # the gauges count the members the tick counters count: any group
        # member, daemon or not, and only while it is alive and joined
        from tests.test_isis_group import Recorder

        host = next(iter(vce.network.hosts.values()))
        host.spawn(Recorder("lone", "OTHER"))
        vce.run(until=vce.sim.now + 0.1)  # it starts, founding its own group
        assert registry.get("isis_awake").value == members + 1
        host.crash()
        assert registry.get("isis_parked").value == 0
        assert registry.get("isis_awake").value == members - 1

    def test_telemetry_off_leaves_no_registry(self):
        vce = VirtualComputingEnvironment(
            heterogeneous_cluster(), VCEConfig(seed=3, telemetry=False)
        ).boot()
        assert vce.telemetry is None
        assert vce.sim.telemetry is None

    def test_same_seed_same_metrics(self):
        def run_once():
            vce = VirtualComputingEnvironment(
                heterogeneous_cluster(), VCEConfig(seed=9)
            ).boot()
            run = vce.run_script(WEATHER_SCRIPT, weather_programs(), name="snow")
            vce.run_to_completion(run)
            return vce.telemetry.prometheus()

        assert run_once() == run_once()


class TestRenderTop:
    def test_renders_from_bare_registry(self):
        reg = _populated_registry()
        frame = render_top(reg, SeriesStore(), watchdog=None, now=4.5)
        assert "t=4.50s" in frame
        assert "totals:" in frame


# ------------------------------------- change-driven sampling and deadlines


def _straggler_run():
    """Four instances of one task: three take 10 s and give the baseline,
    the fourth computes for 500 s with nothing else scheduled."""

    def work(ctx):
        yield Compute(10.0 if ctx.rank else 500.0)

    graph = TaskGraph("slowpoke")
    graph.add_task(TaskNode("work", instances=4, language="py", program=work))
    vce = VirtualComputingEnvironment(workstation_cluster(4), VCEConfig(seed=5)).boot()
    run = vce.submit(graph, class_map={"work": MachineClass.WORKSTATION})
    vce.run_to_completion(run, timeout=5_000.0)
    assert run.state is RunState.DONE, run.error
    return vce


def _load_step_run():
    """No application at all: ws1's owner comes back at t=50."""
    machines = workstation_cluster(4)
    machines[1].background_load = TraceLoad([(50.0, 0.7)])
    vce = VirtualComputingEnvironment(machines, VCEConfig(seed=5)).boot()
    vce.run(until=100.0)
    return vce


def _alloc_error_burst_run():
    """Six allocation errors in one event at t=61, then nothing."""
    vce = VirtualComputingEnvironment(workstation_cluster(4), VCEConfig(seed=5)).boot()
    errors = vce.sim.telemetry.counter("sched_alloc_errors_total")
    vce.sim.schedule_at(61.0, lambda: errors.inc(6))
    vce.run(until=200.0)
    return vce


def store_times(vce, metric, key):
    return [t for t, _ in vce.telemetry.store.series(metric, key)]


class TestChangeDrivenSampler:
    def test_straggler_raised_by_deadline_with_no_event_in_between(self):
        vce, _ = assert_matches_reference(_straggler_run)
        sampler = vce.telemetry.sampler
        (raised,) = [r for r in vce.sim.log.records("health.straggler")]
        record = next(iter(vce.runtime.apps.values())).record("work", 0)
        median = record.duration.quantile(0.5)
        # the first grid point at which the poll would have found it
        grid = sampler.interval
        while not grid - record.dispatched_at > 3.0 * median:
            grid += sampler.interval
        assert raised.time == grid
        assert raised.data["severity"] == "warning"
        assert raised.data["elapsed"] == grid - record.dispatched_at
        assert raised.data["median"] == median
        # nothing but the sampler ran between the siblings' exits and then
        assert sampler.deadline_wakes >= 1
        assert store_times(vce, "host_load", "ws0").count(grid - sampler.interval) == 0
        # ... and the long stretch after it cost keep-alives, not polls
        assert sampler.ticks < sampler.idle_ticks / 5

    def test_load_step_shows_at_the_first_grid_point_after_it(self):
        vce, _ = assert_matches_reference(_load_step_run)
        load = vce.telemetry.store.series("host_load", "ws1")
        assert changes(load) == [(4.0, 0.0), (52.0, 0.7)]
        assert 48.0 not in store_times(vce, "host_load", "ws1")  # idle, skipped
        assert vce.telemetry.registry.get("host_load").labels("ws1").value == 0.7

    def test_alloc_errors_clear_when_the_window_slides_out(self):
        vce, _ = assert_matches_reference(_alloc_error_burst_run)
        health = [
            (r.time, r.category, r.data.get("rule"))
            for r in vce.sim.log
            if r.category.startswith("health.")
        ]
        # raised at the first grid point after the burst; cleared ten grid
        # intervals later with no event in between to prompt it
        assert health == [
            (64.0, "health.alloc_errors", None),
            (104.0, "health.cleared", "alloc_errors"),
        ]
        assert vce.telemetry.sampler.deadline_wakes >= 1

    def test_idle_grid_points_cost_no_sample(self):
        vce = VirtualComputingEnvironment(workstation_cluster(4), VCEConfig(seed=5)).boot()
        sampler = vce.telemetry.sampler
        before = sampler.ticks
        vce.run(until=vce.sim.now + 1200.0)  # 300 grid points, parked cluster
        assert sampler.ticks - before == 300 // KEEPALIVE_TICKS
        assert sampler.keepalives == sampler.ticks - before
        registry = vce.telemetry.registry
        assert registry.get("repro_self_sampler_samples_total").value == sampler.ticks
        assert registry.get("repro_self_sampler_keepalives_total").value == sampler.keepalives
        # counters are written on a sample: the idle ticks since the last
        # one are not in yet
        idle = registry.get("repro_self_sampler_idle_ticks_total").value
        assert sampler.idle_ticks - KEEPALIVE_TICKS < idle <= sampler.idle_ticks
        assert "self: samples=" in vce.telemetry.render()


class TestRefreshIsReadOnly:
    def test_refresh_updates_gauges_but_records_nothing(self):
        machines = workstation_cluster(2)
        machines[0].background_load = TraceLoad([(21.0, 0.4)])
        vce = VirtualComputingEnvironment(machines, VCEConfig(seed=5)).boot()
        vce.run(until=22.0)
        gauge = vce.telemetry.registry.get("host_load").labels("ws0")
        points = len(vce.telemetry.store.series("host_load", "ws0"))
        samples, records = vce.telemetry.sampler.ticks, len(vce.sim.log)
        assert gauge.value == 0.0  # as of the sample at t=20
        vce.telemetry.refresh()
        assert gauge.value == 0.4
        assert vce.telemetry.registry.get("sim_events").value == vce.sim.events_processed
        assert len(vce.telemetry.store.series("host_load", "ws0")) == points
        assert (vce.telemetry.sampler.ticks, len(vce.sim.log)) == (samples, records)

    def test_looking_does_not_change_the_log(self):
        """A soak that raises and clears watchdog conditions, once left
        alone and once snapshotted after every 5 s slice (what `repro top`
        and `GET /api/metrics` do): same event-log digest."""

        def soak(peek: bool):
            from repro.soak import SoakConfig, SoakDriver
            from repro.workloads.tenants import build_population

            cfg = SoakConfig(
                tenants=4, apps=60, machines=8, fanout=2, seed=2,
                instances=(2, 6), work=(0.5, 2.0), arrival_span=6.0,
            )
            population = build_population(
                cfg.tenants, seed=cfg.seed, mean_quota=45,
                instances=cfg.instances, work=cfg.work,
            )
            vce = VirtualComputingEnvironment(
                workstation_cluster(cfg.machines),
                VCEConfig(seed=cfg.seed, tenants=population, telemetry_interval=4.0),
            ).boot()
            driver = SoakDriver(vce, cfg, population)
            vce.user_host.spawn(driver)
            while not driver.finished:
                vce.run(until=vce.sim.now + 5.0)
                if peek:
                    vce.telemetry.snapshot()
            return vce.sim.log

        alone, watched = soak(peek=False), soak(peek=True)
        # only the leader holds a queue, so its saturation alarm is raised
        # and cleared once (not once per member)
        raised = {category for _t, category, _src, _data in health_records(alone)}
        assert {"health.queue_saturation", "health.cleared"} <= raised
        assert event_log_digest(watched) == event_log_digest(alone)


class TestSamplerFollowsRestartedDaemons:
    def test_bounced_host_is_read_through_its_new_daemon(self):
        machines = workstation_cluster(4)
        machines[1].background_load = ConstantLoad(0.5)
        vce = VirtualComputingEnvironment(
            machines, VCEConfig(seed=5)
        ).boot()
        old = vce.daemons["ws1"]
        vce.chaos(FaultSchedule("bounce").bounce(2.0, "ws1", down_for=6.0))
        vce.run(until=vce.sim.now + 60.0)
        assert vce.daemons["ws1"] is not old and not old.alive
        load = vce.telemetry.store.series("host_load", "ws1")
        # 0.5 before the crash, 0.0 while down, 0.5 again from the restart on
        assert [v for _, v in changes(load)] == [0.5, 0.0, 0.5]
        assert vce.telemetry.registry.get("host_load").labels("ws1").value == 0.5

