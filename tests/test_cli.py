"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import main
from repro.workloads import WEATHER_SCRIPT


@pytest.fixture
def weather_file(tmp_path):
    path = tmp_path / "snow.vce"
    path.write_text(WEATHER_SCRIPT)
    return str(path)


class TestDescribe:
    def test_weather_script(self, weather_file):
        out = io.StringIO()
        assert main(["describe", weather_file], out=out) == 0
        text = out.getvalue()
        assert "collector" in text and "predictor" in text
        assert "SIMD" in text and "LOCAL" in text
        assert "2..2" in text  # ASYNC 2

    def test_with_channels_and_priority(self, tmp_path):
        script = tmp_path / "app.vce"
        script.write_text(
            'ASYNC 1 "/a/src.vce"\nASYNC 1 "/a/dst.vce"\n'
            'CHANNEL pipe FROM "/a/src.vce" TO "/a/dst.vce" VOLUME 9\nPRIORITY 3'
        )
        out = io.StringIO()
        assert main(["describe", str(script)], out=out) == 0
        assert "pipe" in out.getvalue()
        assert "priority: 3" in out.getvalue()

    def test_variables(self, tmp_path):
        script = tmp_path / "cond.vce"
        script.write_text(
            'IF n >= 4 THEN ASYNC 4 "/a/w.vce" ELSE ASYNC 1 "/a/w.vce" ENDIF'
        )
        out = io.StringIO()
        assert main(["describe", str(script), "--var", "n=5"], out=out) == 0
        assert "4..4" in out.getvalue()

    def test_missing_file(self):
        assert main(["describe", "/nonexistent.vce"]) == 2

    def test_bad_script(self, tmp_path):
        script = tmp_path / "bad.vce"
        script.write_text("FROB!!")
        assert main(["describe", str(script)]) == 2


class TestRun:
    def test_weather_end_to_end(self, weather_file):
        out = io.StringIO()
        code = main(["run", weather_file, "--seed", "1"], out=out)
        text = out.getvalue()
        assert code == 0, text
        assert "state: done" in text
        assert "predictor[0]" in text and "simd0" in text
        assert "makespan" in text

    def test_run_ws_cluster_policy(self, tmp_path):
        script = tmp_path / "batch.vce"
        script.write_text('ASYNC 3 "/a/jobs.vce"')
        out = io.StringIO()
        code = main(
            ["run", str(script), "--cluster", "ws:4", "--policy", "round-robin",
             "--default-work", "2"],
            out=out,
        )
        assert code == 0, out.getvalue()
        assert "jobs[2]" in out.getvalue()

    def test_insufficient_cluster_fails_nonzero(self, tmp_path):
        script = tmp_path / "big.vce"
        script.write_text('ASYNC 5 "/a/jobs.vce"')
        out = io.StringIO()
        code = main(["run", str(script), "--cluster", "ws:2"], out=out)
        assert code == 1
        assert "state: failed" in out.getvalue()

    def test_bad_cluster_spec(self, weather_file):
        assert main(["run", weather_file, "--cluster", "quantum:3"]) == 2


class TestDemo:
    @pytest.mark.parametrize("workload", ["weather", "montecarlo", "stencil", "pipeline"])
    def test_demos_complete(self, workload):
        out = io.StringIO()
        assert main(["demo", workload], out=out) == 0, out.getvalue()
        assert "state: done" in out.getvalue()

    def test_demo_prints_results(self):
        out = io.StringIO()
        main(["demo", "montecarlo"], out=out)
        assert "result worker: 3.1" in out.getvalue()  # a pi estimate


class TestTop:
    def test_snapshot_prints_gauges_and_quantiles(self, weather_file):
        out = io.StringIO()
        code = main(["top", weather_file, "--snapshot"], out=out)
        text = out.getvalue()
        assert code == 0, text
        # per-host gauge rows
        assert "host" in text and "load" in text and "inflight" in text
        assert "ws0" in text and "simd0" in text
        # at least one histogram quantile
        assert "p50 (s)" in text and "predictor" in text
        assert "state: done" in text

    def test_snapshot_exports_round_trip(self, weather_file, tmp_path):
        import json

        from repro.telemetry import registry_from_snapshot, to_prometheus

        json_path = tmp_path / "metrics.json"
        prom_path = tmp_path / "metrics.prom"
        out = io.StringIO()
        code = main(
            ["top", weather_file, "--snapshot",
             "--json", str(json_path), "--prom", str(prom_path)],
            out=out,
        )
        assert code == 0, out.getvalue()
        exported = prom_path.read_text()
        assert '# TYPE vce_host_load gauge' in exported
        assert 'vce_task_duration_seconds_bucket' in exported
        # the JSON snapshot rebuilds to the exact same exposition text
        rebuilt = registry_from_snapshot(json.loads(json_path.read_text()))
        assert to_prometheus(rebuilt) == exported

    def test_interactive_frames(self, weather_file):
        out = io.StringIO()
        code = main(["top", weather_file, "--refresh", "10", "--frames", "2"], out=out)
        text = out.getvalue()
        assert code in (0, 1)
        assert "[frame 1]" in text and "[frame 2]" in text
        assert "[frame 3]" not in text

    def test_interactive_runs_to_done_by_default(self, weather_file):
        out = io.StringIO()
        code = main(["top", weather_file, "--refresh", "50"], out=out)
        assert code == 0, out.getvalue()
        assert "state: done" in out.getvalue()


class TestTraceCLI:
    def test_prints_critical_path_and_attribution(self, weather_file):
        out = io.StringIO()
        code = main(["trace", weather_file], out=out)
        text = out.getvalue()
        assert code == 0, text
        assert "critical path" in text
        assert "attribution:" in text
        assert "path total:" in text

    def test_missing_script_exits_2(self):
        assert main(["trace", "/nonexistent.vce"]) == 2

    def test_failed_run_exits_1(self, tmp_path):
        script = tmp_path / "big.vce"
        script.write_text('ASYNC 5 "/a/jobs.vce"')
        out = io.StringIO()
        code = main(["trace", str(script), "--cluster", "ws:2"], out=out)
        assert code == 1
        assert "state: failed" in out.getvalue()

    def test_export_to_missing_dir_exits_2(self, weather_file, capsys):
        code = main(["trace", weather_file, "--export", "/nonexistent-dir/t.json"],
                    out=io.StringIO())
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_export_writes_chrome_json(self, weather_file, tmp_path):
        import json

        path = tmp_path / "trace.json"
        out = io.StringIO()
        assert main(["trace", weather_file, "--export", str(path)], out=out) == 0
        events = json.loads(path.read_text())["traceEvents"]
        assert any(e.get("ph") == "X" for e in events)
        assert str(path) in out.getvalue()

    def test_bad_var_rejected_by_parser(self, weather_file, capsys):
        with pytest.raises(SystemExit):
            main(["trace", weather_file, "--var", "n"], out=io.StringIO())
        assert "invalid" in capsys.readouterr().err


class TestTopErrorPaths:
    def test_missing_script_exits_2(self, capsys):
        assert main(["top", "/nonexistent.vce", "--snapshot"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_failed_run_exits_1_but_renders(self, tmp_path):
        script = tmp_path / "big.vce"
        script.write_text('ASYNC 5 "/a/jobs.vce"')
        out = io.StringIO()
        code = main(["top", str(script), "--cluster", "ws:2", "--snapshot"], out=out)
        text = out.getvalue()
        assert code == 1
        assert "state: failed" in text
        assert "host" in text  # the frame still renders host gauges

    def test_empty_registry_exports_cleanly(self, tmp_path):
        """A run that fails before any task executes still exports a valid
        (task-sample-free) registry."""
        import json

        script = tmp_path / "big.vce"
        script.write_text('ASYNC 5 "/a/jobs.vce"')
        json_path = tmp_path / "m.json"
        out = io.StringIO()
        code = main(
            ["top", str(script), "--cluster", "ws:2", "--snapshot",
             "--json", str(json_path)],
            out=out,
        )
        assert code == 1
        snapshot = json.loads(json_path.read_text())
        assert "host_load" in snapshot["metrics"]
        durations = snapshot["metrics"].get("task_duration_seconds")
        assert durations is None or all(
            entry["count"] == 0 for entry in durations["series"]
        )

    def test_json_to_missing_dir_exits_2(self, weather_file, capsys):
        code = main(
            ["top", weather_file, "--snapshot", "--json", "/nonexistent-dir/m.json"],
            out=io.StringIO(),
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestChaosCLI:
    def test_chaos_mix_reports_faults_and_recovery(self, weather_file):
        out = io.StringIO()
        code = main(["chaos", weather_file, "--schedule", "chaos-mix", "--seed", "3"],
                    out=out)
        text = out.getvalue()
        assert code == 0, text
        assert "state: done" in text
        assert "schedule: chaos-mix" in text
        assert "injected faults:" in text and "crash=" in text
        assert "recovery actions:" in text
        assert "retransmits" in text

    def test_missing_script_exits_2(self, capsys):
        assert main(["chaos", "/nonexistent.vce"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_schedule_rejected_by_parser(self, weather_file, capsys):
        with pytest.raises(SystemExit):
            main(["chaos", weather_file, "--schedule", "meteor"])
        assert "invalid choice" in capsys.readouterr().err


class TestGantt:
    def test_gantt_printed(self, weather_file):
        out = io.StringIO()
        code = main(["run", weather_file, "--gantt"], out=out)
        text = out.getvalue()
        assert code == 0
        assert "timeline" in text and "#" in text
        assert "|" in text


@pytest.mark.parametrize(
    "argv", [["run", "app.vce", "--backend", "sharded"], ["soak", "--shards", "2"]]
)
def test_second_engine_flags_are_gone(argv, capsys):
    """There is one virtual-time engine and no flag that selects another."""
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_soak_smoke(tmp_path):
    """A small `repro soak` completes every application and writes its
    JSON report."""
    import json

    report_path = tmp_path / "soak.json"
    out = io.StringIO()
    code = main(
        ["soak", "--tenants", "2", "--apps", "8", "--machines", "4",
         "--instances", "2,4", "--work", "1,2", "--json", str(report_path)],
        out=out,
    )
    assert code == 0, out.getvalue()
    report = json.loads(report_path.read_text())
    assert report["submitted"] == report["completed"] == 8
    assert report["failed"] == 0


def test_bench_verb_is_gone(capsys):
    """Kernel and scale costs live in the tier-1 cost ledger, not a verb."""
    with pytest.raises(SystemExit) as exit_:
        main(["bench"])
    assert exit_.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
