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
"""

import json
from pathlib import Path

from benchmarks._common import once
from repro.bench import check_against_baseline, run_suite
from repro.metrics import format_table

ATTEMPTS = 3
TOLERANCE = 0.25

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


def bench_kernel_throughput(benchmark):
    baseline = json.loads(RESULT_PATH.read_text()) if RESULT_PATH.exists() else {}

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
        return best_full, best_quick, failures

    full, quick, failures = once(benchmark, experiment)

    print()
    for suite in (full, quick):
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
                title=f"kernel bench ({suite['mode']})",
            )
        )

    RESULT_PATH.write_text(
        json.dumps(
            {
                "full": _best(baseline.get("full", {}), full),
                "quick": _best(baseline.get("quick", {}), quick),
                "tolerance": TOLERANCE,
            },
            indent=2,
        )
        + "\n"
    )
    assert not failures, "; ".join(failures)
