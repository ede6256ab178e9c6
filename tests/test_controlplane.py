"""Tests for the live control plane (repro.controlplane).

Covers the subscription hub's backpressure contract (drop-oldest,
bounded queues, accurate counters — example-based and as a hypothesis
property over burst patterns), the entity model's translation of log
records, golden-digest invariance with the control plane attached, the
HTTP server end-to-end, run-directory round trips and
truncation detection, and the shared ``top --json`` metrics schema.
"""

import asyncio
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.controlplane import (
    ControlPlaneModel,
    ControlPlaneServer,
    ServeSession,
    SubscriptionHub,
    TruncatedRunError,
    load_manifest,
    load_run_dir,
    save_run_dir,
    submit_workload,
    topic_matches,
)
from repro.core import VCEConfig, VirtualComputingEnvironment, workstation_cluster
from repro.scheduler.execution_program import RunState
from repro.trace.replay import event_log_digest
from repro.util.eventlog import LogRecord


def _make_vce(seed=3, hosts=4, backend="serial", **kw):
    return VirtualComputingEnvironment(
        workstation_cluster(hosts), VCEConfig(seed=seed, backend=backend, **kw)
    ).boot()


def _run_randomdag(vce, layers=4, width=4, seed=3):
    run = submit_workload(vce, "randomdag", layers=layers, width=width, seed=seed)
    vce.run_to_completion(run, timeout=100_000.0)
    assert run.state is RunState.DONE, run.error
    return run


# ------------------------------------------------------------------ topics


class TestTopicMatches:
    def test_empty_filter_matches_everything(self):
        assert topic_matches("anything.at.all", ())

    def test_exact_and_prefix(self):
        assert topic_matches("entity.host", ("entity.host",))
        assert topic_matches("entity.host.ws1", ("entity.host",))
        assert not topic_matches("entity.hostile", ("entity.host",))

    def test_multiple_prefixes(self):
        prefixes = ("chaos", "health")
        assert topic_matches("health.raise", prefixes)
        assert not topic_matches("entity.app.x", prefixes)


# --------------------------------------------------------------------- hub


class TestSubscription:
    def test_limit_must_be_positive(self):
        hub = SubscriptionHub()
        with pytest.raises(ValueError):
            hub.subscribe("bad", limit=0)

    def test_fifo_delivery(self):
        hub = SubscriptionHub()
        sub = hub.subscribe("s", limit=10)
        for i in range(5):
            hub.publish("t", str(i), float(i))
        assert [e.key for e in sub.drain()] == ["0", "1", "2", "3", "4"]
        assert sub.delivered == 5 and sub.dropped == 0

    def test_drop_oldest_at_limit(self):
        hub = SubscriptionHub()
        sub = hub.subscribe("slow", limit=3)
        for i in range(10):
            hub.publish("t", str(i), float(i))
        assert sub.pending == 3
        assert sub.dropped == 7
        # the three *newest* survive
        assert [e.key for e in sub.drain()] == ["7", "8", "9"]

    def test_topic_filtered_subscription(self):
        hub = SubscriptionHub()
        sub = hub.subscribe("f", topics=("entity.app",))
        hub.publish("entity.app.a1", "a1", 0.0)
        hub.publish("entity.host.ws0", "ws0", 0.0)
        assert sub.matched == 1 and sub.pending == 1

    def test_coalescing_replaces_in_place(self):
        hub = SubscriptionHub()
        sub = hub.subscribe("c", limit=10, coalesce=True)
        hub.publish("m", "cluster", 1.0, {"v": 1}, coalescable=True)
        hub.publish("other", "x", 1.5)
        hub.publish("m", "cluster", 2.0, {"v": 2}, coalescable=True)
        # the refresh replaced the pending cell without moving it
        events = sub.drain()
        assert [(e.topic, e.key) for e in events] == [("m", "cluster"), ("other", "x")]
        assert events[0].data == {"v": 2}
        assert sub.coalesced == 1

    def test_coalesce_disabled_keeps_every_event(self):
        hub = SubscriptionHub()
        sub = hub.subscribe("nc", limit=10, coalesce=False)
        hub.publish("m", "cluster", 1.0, coalescable=True)
        hub.publish("m", "cluster", 2.0, coalescable=True)
        assert sub.pending == 2 and sub.coalesced == 0

    def test_drained_coalescable_requeues(self):
        hub = SubscriptionHub()
        sub = hub.subscribe("c", limit=10)
        hub.publish("m", "k", 1.0, coalescable=True)
        assert len(sub.drain()) == 1
        hub.publish("m", "k", 2.0, coalescable=True)
        assert sub.pending == 1  # not coalesced into the already-taken cell

    def test_close_detaches(self):
        hub = SubscriptionHub()
        sub = hub.subscribe("x")
        sub.close()
        hub.publish("t", "k", 0.0)
        assert sub.matched == 0
        assert hub.subscriptions == ()

    def test_drain_max_items(self):
        hub = SubscriptionHub()
        sub = hub.subscribe("s", limit=10)
        for i in range(6):
            hub.publish("t", str(i), 0.0)
        assert len(sub.drain(max_items=4)) == 4
        assert sub.pending == 2

    def test_on_enqueue_wakeup(self):
        hub = SubscriptionHub()
        calls = []
        hub.subscribe("w", on_enqueue=lambda: calls.append(1))
        hub.publish("t", "k", 0.0)
        assert calls == [1]

    def test_registry_metrics(self):
        from repro.telemetry.registry import MetricsRegistry

        registry = MetricsRegistry()
        hub = SubscriptionHub(registry)
        hub.subscribe("slow", limit=1)
        for i in range(4):
            hub.publish("t", str(i), 0.0)
        published = registry.get("controlplane_events_published_total")
        dropped = registry.get("controlplane_events_dropped_total")
        subs = registry.get("controlplane_subscriptions")
        assert published.labels().value == 4
        assert dropped.labels("slow").value == 3
        assert subs.labels().value == 1


def _conserved(sub):
    return sub.matched == sub.delivered + sub.pending + sub.dropped + sub.coalesced


# a burst pattern: publishes (topic index, coalescable flag) interleaved
# with partial drains
_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("pub"), st.integers(0, 3), st.booleans()
        ),
        st.tuples(st.just("drain"), st.integers(0, 8), st.booleans()),
    ),
    max_size=200,
)


@given(ops=_OPS, limit=st.integers(1, 8), coalesce=st.booleans())
@settings(max_examples=200, deadline=None)
def test_backpressure_property(ops, limit, coalesce):
    """For ANY burst pattern a slow subscriber sees drop-oldest with
    accurate counters: the queue never exceeds its limit, the publisher
    never blocks or errors (the simulation never stalls), and the
    conservation law ``matched == delivered + pending + dropped +
    coalesced`` holds at every instant."""
    hub = SubscriptionHub()
    sub = hub.subscribe("slow", limit=limit, coalesce=coalesce)
    fast = hub.subscribe("fast", limit=10_000)  # a fast reader is unaffected
    topics = ["a", "a.b", "c", "metrics"]
    published = 0
    seen_seq = 0
    for op in ops:
        if op[0] == "pub":
            _, idx, coalescable = op
            hub.publish(topics[idx], f"k{idx}", float(published), coalescable=coalescable)
            published += 1
        else:
            _, k, _ = op
            for event in sub.drain(max_items=k):
                if not coalesce:
                    # without coalescing, delivery is strictly FIFO; a
                    # coalesced cell keeps its (older) queue position, so
                    # a newer seq may legitimately precede an older one
                    assert event.seq > seen_seq
                    seen_seq = event.seq
        assert sub.pending <= limit
        assert _conserved(sub)
        assert _conserved(fast)
    # the fast subscriber missed nothing
    assert fast.dropped == 0 and fast.matched == published
    # total accounting closes once both drain dry
    sub.drain()
    fast.drain()
    assert _conserved(sub) and sub.pending == 0
    assert fast.delivered + fast.coalesced == published


# ------------------------------------------------------------- entity model


class TestEntityModel:
    def test_randomdag_translation(self):
        vce = _make_vce()
        model = ControlPlaneModel(vce).attach()
        feed = model.hub.subscribe("all", limit=100_000, coalesce=False)
        _run_randomdag(vce)
        topics = {e.topic.split(".")[0] for e in feed.drain()}
        assert "entity" in topics and "metrics" in topics
        apps = model.snapshot()["apps"]
        assert len(apps) == 1
        app = apps[0]
        assert app["status"] == "done"
        assert app["done"] == app["dispatched"] > 0
        assert app["inflight"] == 0

    def test_snapshot_schema(self):
        vce = _make_vce()
        model = ControlPlaneModel(vce).attach()
        snap = model.snapshot()
        assert set(snap) >= {"time", "hosts", "daemons", "apps", "instances", "hub", "health"}
        # the workstations plus the cluster's submitting "user" host
        assert {h["name"] for h in snap["hosts"]} >= {"ws0", "ws1", "ws2", "ws3"}
        assert snap["health"].keys() >= {"active", "rules"}

    def test_detach_is_idempotent_and_stops_publishing(self):
        vce = _make_vce()
        model = ControlPlaneModel(vce).attach()
        model.detach()
        model.detach()
        before = model.hub.published
        _run_randomdag(vce)
        assert model.hub.published == before

    def test_chaos_feed_events(self):
        vce = _make_vce()
        model = ControlPlaneModel(vce).attach()
        feed = model.hub.subscribe("feed", topics=("chaos", "recovery"), limit=10_000)
        vce.chaos("daemon-bounce", seed=3)
        _run_randomdag(vce)
        topics = {e.topic for e in feed.drain()}
        assert "chaos" in topics


# ------------------------------------------------------ determinism (golden)


class TestGoldenInvariance:
    def test_digest_unchanged_with_control_plane_attached(self, tmp_path):
        """The golden randomdag digest is byte-identical with the control
        plane attached — even with a slow subscriber forcing drops — and
        a saved run directory round-trips to the same digest."""
        from tests.test_cost_ledger import ledger

        golden = ledger()["randomdag_seed3"]["digest"]

        from repro.workloads import build_random_dag

        graph = build_random_dag(layers=8, width=8, seed=3)
        vce = _make_vce(seed=3)
        model = ControlPlaneModel(vce).attach()
        slow = model.hub.subscribe("slow", limit=2)  # backpressure engaged
        run = vce.submit(graph, class_map={node.name: None for node in graph})
        vce.run_to_completion(run, timeout=100_000.0)
        assert run.state is RunState.DONE, run.error
        assert event_log_digest(vce.sim.log) == golden
        assert slow.dropped > 0  # the slow consumer really did fall behind
        # ... and a saved run directory verifies against its own manifest
        # (the on-disk digest covers the JSON round trip, so it is a
        # self-consistency check, not a cross-format one)
        rundir = str(tmp_path / "run")
        save_run_dir(vce, rundir)
        assert event_log_digest(load_run_dir(rundir)) == load_manifest(rundir)["digest"]

    @pytest.mark.parametrize("backend", ["serial"])
    def test_serve_session_is_passive(self, backend):
        """Driving the same workload through ServeSession slices (the
        ``repro serve`` path) yields the same digest as a straight run."""
        from repro.workloads import build_random_dag

        def digest(with_session):
            vce = _make_vce(seed=3, backend=backend)
            if with_session:
                session = ServeSession(vce, slice_seconds=7.0)
                run = session.submit("randomdag", layers=4, width=4, seed=3)
                while not session.workload_done:
                    session.advance()
            else:
                graph = build_random_dag(layers=4, width=4, seed=3)
                run = vce.submit(graph, class_map={n.name: None for n in graph})
                vce.run_to_completion(run, timeout=100_000.0)
            assert run.state is RunState.DONE, run.error
            return event_log_digest(vce.sim.log)

        assert digest(True) == digest(False)


class TestIdleSlices:
    """A parked cluster schedules nothing, so a slice can hold no event at
    all (heartbeats used to fill every one): the drive loop must neither
    spin on a clock that does not move nor stall waiting for an event."""

    def test_empty_slices_advance_the_clock(self):
        vce = _make_vce()
        session = ServeSession(vce, slice_seconds=2.0)
        start, events = vce.sim.now, vce.sim.events_processed
        for n in range(1, 4):
            assert session.advance() == start + 2.0 * n
        # nothing ran: the sampler's grid points are not kernel events
        assert vce.sim.events_processed == events
        assert session.slices == 3

    def test_pacer_paces_empty_slices(self):
        from repro.netsim.pacing import WallClockPacer

        vce = _make_vce()
        session = ServeSession(vce, slice_seconds=2.0, pacer=WallClockPacer(rate=10.0))
        session.advance()
        # 2 simulated seconds at 10 sim-s per wall-s: sleep most of 0.2 s
        assert 0.1 < session.sleep_for() <= 0.2

    def test_serve_cli_paces_an_idle_cluster(self):
        from repro.cli import main

        out = io.StringIO()
        code = main(
            ["serve", "--cluster", "ws:4", "--port", "0", "--pace", "100",
             "--slice", "2", "--max-wall", "1.5"],
            out=out,
        )
        text = out.getvalue()
        assert code == 0, text
        slices = int(text.split(" slices;")[0].rsplit(" ", 1)[1])
        # 1.5 wall-s x 100 sim-s/s / 2 sim-s per slice = 75: far from both a
        # spin (thousands) and a stall (one)
        assert 20 <= slices <= 80, text


# -------------------------------------------------------------------- drain


class TestDrain:
    def test_drain_emits_control_events(self):
        vce = _make_vce()
        daemon = vce.drain_host("ws1")
        assert daemon.draining
        vce.drain_host("ws1")  # idempotent: no second event
        vce.undrain_host("ws1")
        assert not daemon.draining
        cats = [r.category for r in vce.sim.log if r.category.startswith("control.")]
        assert cats == ["control.drain", "control.undrain"]

    def test_drained_host_receives_no_new_instances(self):
        """A drained daemon stops bidding, so placement (stencil uses
        market bidding) routes around it mid-run."""
        vce = _make_vce(hosts=6)
        vce.drain_host("ws2")
        run = submit_workload(vce, "stencil", ranks=4, iterations=4)
        vce.run_to_completion(run, timeout=100_000.0)
        assert run.state is RunState.DONE, run.error
        hosts = {
            r.data.get("host")
            for r in vce.sim.log
            if r.category == "runtime.dispatch"
        }
        assert hosts and "ws2" not in hosts

    def test_undrained_host_bids_again(self):
        # ranks == workstations: the run can only allocate if the
        # undrained host came back into the bidding pool
        vce = _make_vce(hosts=4)
        vce.drain_host("ws1")
        vce.undrain_host("ws1")
        run = submit_workload(vce, "stencil", ranks=4, iterations=4)
        vce.run_to_completion(run, timeout=100_000.0)
        assert run.state is RunState.DONE, run.error


# ----------------------------------------------------------- run directories


class TestRunDir:
    def _saved(self, tmp_path):
        vce = _make_vce()
        _run_randomdag(vce)
        rundir = str(tmp_path / "run")
        save_run_dir(vce, rundir)
        return vce, rundir

    def test_round_trip(self, tmp_path):
        vce, rundir = self._saved(tmp_path)
        log = load_run_dir(rundir)
        assert len(log) == len(vce.sim.log)
        manifest = load_manifest(rundir)
        assert manifest["records"] == len(log)
        assert manifest["seed"] == 3 and manifest["backend"] == "serial"

    def test_handle_records_equal_dict_records_and_round_trip(self, tmp_path):
        """Records written through category handles equal the LogRecord
        built from their payload dict, and load back from a run directory
        equal (after the JSON round trip that turns tuples into lists)."""
        vce, rundir = self._saved(tmp_path)
        loaded = load_run_dir(rundir)
        for category in ("task.start", "task.done", "runtime.dispatch"):
            written = vce.sim.log.records(category=category)
            assert written, category
            for record in written:
                rebuilt = LogRecord(record.time, record.category, record.source, record.data)
                assert rebuilt == record and list(rebuilt.data) == list(record.data)
            json_view = [
                LogRecord(r.time, r.category, r.source, json.loads(json.dumps(r.data)))
                for r in written
            ]
            assert loaded.records(category=category) == json_view
        assert loaded.records(category="task.done") == vce.sim.log.records(category="task.done")

    def test_truncated_events_detected(self, tmp_path):
        _, rundir = self._saved(tmp_path)
        events = f"{rundir}/events.jsonl"
        lines = open(events).read().splitlines()
        # cut mid-record: half the lines plus a torn final line
        open(events, "w").write("\n".join(lines[: len(lines) // 2] + ['{"time": 1.', ""]))
        with pytest.raises(TruncatedRunError):
            load_run_dir(rundir)

    def test_missing_manifest_detected(self, tmp_path):
        _, rundir = self._saved(tmp_path)
        import os

        os.remove(f"{rundir}/manifest.json")
        with pytest.raises(TruncatedRunError):
            load_run_dir(rundir)

    def test_tampered_record_fails_digest(self, tmp_path):
        _, rundir = self._saved(tmp_path)
        events = f"{rundir}/events.jsonl"
        lines = open(events).read().splitlines()
        record = json.loads(lines[0])
        record["time"] += 1.0
        lines[0] = json.dumps(record)
        open(events, "w").write("\n".join(lines) + "\n")
        with pytest.raises(TruncatedRunError, match="digest"):
            load_run_dir(rundir)


class TestRunDirCLI:
    @pytest.fixture
    def rundir(self, tmp_path):
        vce = _make_vce()
        _run_randomdag(vce)
        path = str(tmp_path / "run")
        save_run_dir(vce, path)
        return path

    def test_trace_reads_run_directory(self, rundir):
        from repro.cli import main

        out = io.StringIO()
        assert main(["trace", rundir], out=out) == 0
        text = out.getvalue()
        assert "run directory" in text and "critical path" in text

    def test_chaos_reads_run_directory(self, rundir):
        from repro.cli import main

        out = io.StringIO()
        assert main(["chaos", rundir], out=out) == 0
        assert "injected faults" in out.getvalue()

    @pytest.mark.parametrize("command", ["trace", "chaos"])
    def test_truncated_run_directory_friendly_error(self, rundir, command, capsys):
        from repro.cli import main

        with open(f"{rundir}/events.jsonl", "a") as fh:
            fh.write('{"time": 99')  # torn trailing write
        out = io.StringIO()
        assert main([command, rundir], out=out) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err
        assert "hint:" in err

    def test_save_run_flag(self, tmp_path, weather_file=None):
        from repro.cli import main
        from repro.workloads import WEATHER_SCRIPT

        script = tmp_path / "w.vce"
        script.write_text(WEATHER_SCRIPT)
        rundir = str(tmp_path / "saved")
        out = io.StringIO()
        assert main(["run", str(script), "--save-run", rundir], out=out) == 0
        assert "saved run directory" in out.getvalue()
        assert load_manifest(rundir)["records"] == len(load_run_dir(rundir))


# ------------------------------------------------------------- shared schema


class TestTopJsonSchema:
    def test_top_json_includes_watchdog_rules(self, tmp_path):
        from repro.cli import main
        from repro.workloads import WEATHER_SCRIPT

        script = tmp_path / "w.vce"
        script.write_text(WEATHER_SCRIPT)
        path = tmp_path / "top.json"
        out = io.StringIO()
        assert main(
            ["top", str(script), "--snapshot", "--json", str(path)], out=out
        ) == 0
        snap = json.loads(path.read_text())
        # one schema shared with GET /api/metrics on the control plane
        assert "health" in snap
        rules = snap["health"]["rules"]
        assert "host_down" in rules and "stranded" in rules
        assert all(set(v) >= {"active", "severity"} for v in rules.values())


# ------------------------------------------------------------------- server


async def _http(port, method, path, body=None):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    payload = json.dumps(body).encode() if body is not None else b""
    head = f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
    if payload:
        head += f"Content-Type: application/json\r\nContent-Length: {len(payload)}\r\n"
    writer.write(head.encode() + b"\r\n" + payload)
    await writer.drain()
    raw = await asyncio.wait_for(reader.read(), timeout=30)
    writer.close()
    status_line, _, rest = raw.partition(b"\r\n")
    _, _, body_bytes = raw.partition(b"\r\n\r\n")
    return int(status_line.split(b" ")[1]), body_bytes


async def _read_sse(port, n_frames, topics=""):
    """Connect to /events and return (snapshot, frames) once *n_frames*
    unnamed data frames arrived."""
    query = f"?topics={topics}" if topics else ""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(f"GET /events{query} HTTP/1.1\r\nHost: t\r\n\r\n".encode())
    await writer.drain()
    snapshot = None
    frames = []
    event_name = None
    while len(frames) < n_frames:
        line = (await asyncio.wait_for(reader.readline(), timeout=30)).decode().strip()
        if line.startswith("event:"):
            event_name = line.split(":", 1)[1].strip()
        elif line.startswith("data:"):
            obj = json.loads(line.split(":", 1)[1])
            if event_name == "snapshot":
                snapshot = obj
            else:
                frames.append(obj)
            event_name = None
    writer.close()
    return snapshot, frames


@pytest.mark.parametrize("backend", ["serial"])
def test_server_end_to_end(backend, tmp_path):
    """Boot `repro serve`'s server on a random port, stream SSE entity
    events for a randomdag workload, drive the control API mid-run
    (chaos recipe + drain + snapshot), then shut down cleanly."""

    async def scenario():
        vce = _make_vce(seed=3, backend=backend)
        session = ServeSession(vce, slice_seconds=4.0)
        session.submit("randomdag", layers=4, width=4, seed=3)
        server = ControlPlaneServer(session, port=0)
        await server.start()
        port = server.port
        driver = asyncio.ensure_future(server.run(max_wall=60))

        snapshot, frames = await _read_sse(port, n_frames=3)
        assert snapshot is not None
        assert {h["name"] for h in snapshot["hosts"]} >= {"ws0", "ws1", "ws2", "ws3"}
        assert all("topic" in f and "seq" in f for f in frames)

        status, body = await _http(port, "GET", "/api/state")
        assert status == 200 and len(json.loads(body)["hosts"]) >= 4

        status, body = await _http(port, "GET", "/api/metrics")
        assert status == 200 and "health" in json.loads(body)

        status, body = await _http(
            port, "POST", "/api/chaos", {"schedule": "daemon-bounce", "seed": 3}
        )
        assert status == 200 and json.loads(body)["actions"] > 0

        status, body = await _http(port, "POST", "/api/drain", {"host": "ws1"})
        assert status == 200 and json.loads(body)["draining"] is True
        assert vce.daemons["ws1"].draining

        status, body = await _http(
            port, "POST", "/api/drain", {"host": "ws1", "undrain": True}
        )
        assert status == 200 and json.loads(body)["draining"] is False

        rundir = str(tmp_path / f"snap-{backend}")
        status, body = await _http(port, "POST", "/api/snapshot", {"path": rundir})
        assert status == 200

        status, body = await _http(port, "GET", "/")
        assert status == 200 and b"<!doctype html>" in body.lower()

        status, _ = await _http(port, "GET", "/ws")
        assert status == 404  # SSE is the one stream

        loop = asyncio.get_running_loop()
        deadline = loop.time() + 30
        paths = []
        while not paths:
            assert loop.time() < deadline, "no critical path within 30 s"
            status, body = await _http(port, "GET", "/api/trace")
            assert status == 200
            paths = json.loads(body)["paths"]
            if not paths:
                await asyncio.sleep(0.05)
        makespans = vce.metrics().app_makespans()
        for path in paths:
            assert path["makespan"] == makespans[path["app"]]

        status, _ = await _http(port, "POST", "/api/shutdown")
        assert status == 200
        await asyncio.wait_for(driver, timeout=30)
        assert load_manifest(rundir)["backend"] == backend
        return session

    session = asyncio.run(scenario())
    assert session.hub.published > 0


def test_server_rejects_bad_requests():
    async def scenario():
        session = ServeSession(_make_vce(), slice_seconds=4.0)
        server = ControlPlaneServer(session, port=0)
        await server.start()
        port = server.port
        driver = asyncio.ensure_future(server.run(max_wall=30))
        checks = [
            ("GET", "/nope", None, 404),
            ("POST", "/api/drain", {"host": "nosuch"}, 404),
            ("POST", "/api/submit", {"workload": "frobnicate"}, 400),
            ("POST", "/api/chaos", {"schedule": "not-a-schedule"}, 400),
        ]
        for method, path, body, expect in checks:
            status, _ = await _http(port, method, path, body)
            assert status == expect, (path, status)
        await _http(port, "POST", "/api/shutdown")
        await asyncio.wait_for(driver, timeout=30)

    asyncio.run(scenario())


def test_serve_cli_headless(tmp_path):
    """`repro serve --workload ... --exit-when-done` runs unattended to
    completion (the CI smoke path, minus curl)."""
    from repro.cli import main

    out = io.StringIO()
    rundir = str(tmp_path / "run")
    code = main(
        [
            "serve",
            "--workload", "randomdag",
            "--layers", "3",
            "--width", "3",
            "--seed", "3",
            "--cluster", "ws:4",
            "--port", "0",
            "--pace", "0",
            "--exit-when-done",
            "--max-wall", "60",
            "--save-run", rundir,
        ],
        out=out,
    )
    text = out.getvalue()
    assert code == 0, text
    assert "control plane on http://" in text
    assert "stopped at t=" in text
    assert load_manifest(rundir)["records"] > 0
