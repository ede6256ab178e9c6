"""BENCHMARK.json and the code name the same workloads and metrics."""

import json
import re

import metrics
import run
from workloads import WORKLOADS

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def test_keys_and_limits():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["paths"] == ["perfbench"]
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert (run.ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024


def test_workloads_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]


def test_metrics_match_the_code():
    end_to_end = {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]}
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]}
    assert end_to_end == metrics.END_TO_END
    assert per_layer == metrics.PER_LAYER
    names = list(end_to_end) + list(per_layer) + list(WORKLOADS)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for unit, better in list(end_to_end.values()) + list(per_layer.values()):
        assert UNIT.match(unit), unit
        assert better in ("lower", "higher")
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    assert end_to_end["setup_s"] == ("s", "lower")
    setup_bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup_bound == max(m["bound"] for m in SPEC["end_to_end"])
