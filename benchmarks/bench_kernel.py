"""Kernel & scheduler throughput on the canonical workloads.

Runs the ``repro.bench`` suite in both full and quick modes and writes
``BENCH_kernel.json`` at the repo root — the checked-in baseline that the
CI perf-smoke job (``repro bench --quick --check``) gates against.

Regression gating uses the *normalized ratio* (workload task instances/sec
over the same-process empty-callback pump rate) so host speed cancels out; see
``repro.bench``. When a baseline is already checked in, this benchmark
asserts the fresh measurement has not regressed more than ``TOLERANCE``
below it, re-measuring up to ``ATTEMPTS`` times (keeping the best run) so
a CI contention burst does not fail the build. The freshly written
baseline keeps, per workload, the *best* ratio seen (old vs new) — the
file ratchets toward clean-machine numbers instead of decaying on noisy
ones — while event counts and digests always reflect the current code.

The ``sharded`` section records the sharded backend the same way: a quick
suite at the CI gate's shard count (digest parity with the serial run is
asserted — backend invariance is a correctness gate, not a perf number)
plus an events/sec sweep over shard counts on randomdag-5k. Sharded
throughput is gated against the serial suite measured in the same process
(``check_sharded_overhead``), not against its own checked-in ratios: the
ratcheted maxima exist for trend-reading, and a quick suite's run-to-run
noise exceeds any tolerance tight enough to catch real regressions.
"""

import json
from pathlib import Path

from benchmarks._common import once
from repro.bench import (
    check_against_baseline,
    check_backend_parity,
    check_sharded_overhead,
    run_suite,
    sharded_scaling,
)
from repro.metrics import format_table

ATTEMPTS = 3
TOLERANCE = 0.25
#: shard count the ratcheted sharded quick section (and CI gate) runs at
SHARDED_QUICK_SHARDS = 2
#: shard counts swept by the scaling record
SCALING_SHARDS = (1, 2, 4, 8)

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_kernel.json"


def _best(old: dict, new: dict) -> dict:
    """Merge suites keeping the best normalized ratio per workload (event
    counts/digests always come from the new measurement)."""
    merged = dict(new)
    merged["workloads"] = {}
    for name, result in new["workloads"].items():
        result = dict(result)
        base = old.get("workloads", {}).get(name)
        if base is not None and base.get("sim_events") == result["sim_events"]:
            result["normalized_ratio"] = max(
                result["normalized_ratio"], base["normalized_ratio"]
            )
        merged["workloads"][name] = result
    return merged


def _best_scaling(old: dict, new: dict) -> dict:
    """Ratchet the shard-scaling record: keep the best events/sec per shard
    count (and the serial reference) when the event schedule is unchanged."""
    if old.get("sim_events") != new["sim_events"]:
        return new
    merged = dict(new)
    merged["serial_events_per_sec"] = max(
        new["serial_events_per_sec"], old.get("serial_events_per_sec", 0.0)
    )
    merged["per_shards"] = {}
    for n, result in new["per_shards"].items():
        result = dict(result)
        base = old.get("per_shards", {}).get(n)
        if base is not None:
            result["events_per_sec"] = max(
                result["events_per_sec"], base["events_per_sec"]
            )
        result["speedup_vs_serial"] = round(
            result["events_per_sec"] / merged["serial_events_per_sec"], 3
        )
        merged["per_shards"][n] = result
    return merged


def bench_kernel_throughput(benchmark):
    baseline = json.loads(RESULT_PATH.read_text()) if RESULT_PATH.exists() else {}
    sharded_baseline = baseline.get("sharded", {})

    def experiment():
        best_full, best_quick, failures = None, None, []
        for _ in range(ATTEMPTS):
            full = run_suite(quick=False)
            quick = run_suite(quick=True)
            best_full = full if best_full is None else _best(best_full, full)
            best_quick = quick if best_quick is None else _best(best_quick, quick)
            failures = [
                msg
                for mode, suite in (("full", best_full), ("quick", best_quick))
                if mode in baseline
                for msg in check_against_baseline(
                    suite, baseline[mode], tolerance=TOLERANCE
                )
            ]
            if not failures:
                break
        # sharded section: one quick suite at the CI gate's shard count
        # (digest parity vs the serial run is the hard invariant) plus the
        # shard-count scaling sweep on the big DAG
        sharded_quick = run_suite(quick=True, backend="sharded", shards=SHARDED_QUICK_SHARDS)
        failures += check_backend_parity(sharded_quick, best_quick)
        # Engine overhead is gated against the serial suite from this
        # same process (noise-immune ratio) rather than the checked-in
        # sharded ratios, whose ratcheted maxima a normal run on a busy
        # machine undershoots by more than the tolerance.
        failures += check_sharded_overhead(sharded_quick, best_quick)
        scaling = sharded_scaling(shard_counts=SCALING_SHARDS)
        return best_full, best_quick, sharded_quick, scaling, failures

    full, quick, sharded_quick, scaling, failures = once(benchmark, experiment)

    print()
    for suite in (full, quick, sharded_quick):
        rows = [
            [
                name,
                f"{r['normalized_ratio']:.3e}",
                f"{r['dispatch_ms_per_instance']:.3f}",
                f"{r['events_per_sec']:,.0f}",
                f"{r['sched_event_share'] * 100:.1f}%",
                f"{r['sim_events']:,}",
            ]
            for name, r in suite["workloads"].items()
        ]
        print(
            format_table(
                ["workload", "inst/s÷pump", "ms/task", "events/s", "sched share", "events"],
                rows,
                title=f"kernel bench ({suite['mode']}, {suite['backend']})",
            )
        )
    scaling_rows = [
        [n, f"{r['events_per_sec']:,.0f}", f"{r['speedup_vs_serial']:.3f}"]
        for n, r in scaling["per_shards"].items()
    ]
    print(
        format_table(
            ["shards", "events/s", "vs serial"],
            scaling_rows,
            title=(
                f"sharded scaling ({scaling['workload']}, "
                f"serial {scaling['serial_events_per_sec']:,.0f} ev/s)"
            ),
        )
    )

    RESULT_PATH.write_text(
        json.dumps(
            {
                "full": _best(baseline.get("full", {}), full),
                "quick": _best(baseline.get("quick", {}), quick),
                "sharded": {
                    "quick": _best(sharded_baseline.get("quick", {}), sharded_quick),
                    "scaling": _best_scaling(
                        sharded_baseline.get("scaling", {}), scaling
                    ),
                },
                "tolerance": TOLERANCE,
            },
            indent=2,
        )
        + "\n"
    )
    assert not failures, "; ".join(failures)
