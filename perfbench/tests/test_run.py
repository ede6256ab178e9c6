"""Every workload, small: names, units, determinism."""

import json

import pytest

import metrics
import run
from workloads import WORKLOADS

SCALE = 0.05


@pytest.fixture(scope="module")
def reps():
    """workload -> (seed 1, seed 1 again, seed 1 traced, seed 2)."""
    out = {}
    for name in WORKLOADS:
        out[name] = (
            run.run_rep(name, 1, SCALE, False, 60.0),
            run.run_rep(name, 1, SCALE, False, 60.0),
            run.run_rep(name, 1, SCALE, True, 60.0),
            run.run_rep(name, 2, SCALE, False, 60.0),
        )
    return out


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(reps, name):
    first, _again, traced, _other = reps[name]
    assert "crashed" not in first and "crashed" not in traced, (first, traced)
    assert first["failed"] == 0 and traced["failed"] == 0, first["errors"]
    assert {k: v["unit"] for k, v in first["end_to_end"].items()} == {
        k: unit for k, (unit, _better) in metrics.END_TO_END.items()
    }
    assert {k: v["unit"] for k, v in traced["per_layer"].items()} == {
        k: unit for k, (unit, _better) in metrics.PER_LAYER.items()
    }
    assert all(v["value"] > 0 for v in first["end_to_end"].values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_same_results_other_seed_other_results(reps, name):
    first, again, traced, other = reps[name]
    assert first["digest"] == again["digest"] == traced["digest"]
    assert first["digest"] != other["digest"]
    assert first["work"] == again["work"]
    if name != "net_chain":  # its clock is the wall clock
        sim = "work_per_sim_s"
        assert first["end_to_end"][sim] == again["end_to_end"][sim]
        assert first["end_to_end"][sim] == traced["end_to_end"][sim]


def test_counts_repeat_on_the_simulator(reps):
    first = reps["soak_chaos"][2]["per_layer"]
    again = run.run_rep("soak_chaos", 1, SCALE, True, 60.0)["per_layer"]
    for name, (unit, _better) in metrics.PER_LAYER.items():
        if unit in ("count", "sim_s", "B"):
            assert first[name] == again[name], name


def test_members_polled_counts_across_daemon_bounces(reps):
    # from sched.delegate records: a bounced daemon's own counters restart
    traced = reps["soak_chaos"][2]["per_layer"]
    assert traced["faults.injected"]["value"] > 0
    assert 1 <= traced["scheduler.members_polled_per_round"]["value"] <= 24


def test_measure_reports_the_contract_keys():
    result = run.measure("dag_dense", 3, 1.0, SCALE, trace=False)
    assert result["reps"] == run.MIN_REPS
    line = json.loads(run.contract_line(result))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == set(metrics.END_TO_END)


def test_a_timed_out_repetition_fails_all_of_its_operations():
    result = run.run_rep("soak_bid", 1, 1.0, False, 0.2)
    assert "timed out" in result["crashed"]


def canned_measure(values):
    """A stand-in for run.measure that replays *values* (one per call)."""
    calls = iter(values)

    def measure(workload, seed, seconds, scale, trace):
        value = next(calls)
        metrics_ = {} if value is None else {
            name: {"value": value, "unit": unit}
            for name, (unit, _better) in metrics.END_TO_END.items()
        }
        samples = {name: [m["value"]] for name, m in metrics_.items()}
        return {"correct": value is not None, "notes": ["boom"], "elapsed_s": 0.0,
                "metrics": metrics_, "samples": samples}

    return measure


@pytest.fixture
def check(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "HERE", tmp_path)
    monkeypatch.setattr(run, "RESULTS", tmp_path)
    monkeypatch.setattr(run, "CHECK_SEEDS", 3)

    def check(values):
        monkeypatch.setattr(run, "measure", canned_measure(values))
        return run.repeat_check(run.contract(), ["dag_dense"], 1.0, SCALE)

    return check


def test_repeat_check_passes_equal_rounds_and_records_them(check, tmp_path):
    # per round: three seeds and one traced run
    assert check([1.0, 1.01, 1.02, 1.0] * 2) == 0
    row = json.loads((tmp_path / "spreads.json").read_text())["dag_dense"]
    assert set(row) == set(metrics.END_TO_END)


def test_repeat_check_fails_a_run_without_results_instead_of_raising(check, capsys):
    assert check([1.0, None, 1.02, 1.0] + [1.0, 1.01, 1.02, 1.0]) == 1
    assert "FAIL dag_dense seed 2" in capsys.readouterr().out


def test_repeat_check_fails_a_simulated_value_that_differs_at_all(check, capsys):
    assert check([1.0, 1.01, 1.02, 1.0] + [1.0, 1.01, 1.02001, 1.0]) == 1
    assert "work_per_sim_s (seed 3): differs" in capsys.readouterr().out
