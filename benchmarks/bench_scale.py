"""Multi-tenant soak scale conformance + the checked-in scale baseline.

Runs the ``repro.bench`` scale suite in quick and full modes and writes
``BENCH_scale.json`` at the repo root — the baseline the CI scale-smoke
job (``repro bench --suite scale --quick --check``) gates against.

Everything gated is deterministic (replay digests, event counts, peak
concurrency, bid fan-out per round), so the baseline never decays on a
noisy machine: a mismatch means scheduling behaviour actually changed
and the file must be consciously regenerated by re-running this
benchmark. Wall-clock numbers (``wall_seconds``, ``events_per_sec``) are
recorded for trend-reading only and ratchet toward the best run seen.

The full section's ``hier-2000`` scenario is the headline acceptance
run: 50 tenants submitting 2000 applications onto 256 workstations under
fanout-8 hierarchical bidding — six-figure peak concurrent instances
with per-round bid fan-out a small fraction of the flat broadcast's.
"""

import json
from pathlib import Path

from benchmarks._common import once
from repro.bench import check_scale_baseline, check_scale_suite, run_scale_suite

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_scale.json"

#: the headline run must demonstrate six-figure concurrency
MIN_PEAK_LIVE = 100_000


def _ratchet(old: dict, new: dict) -> dict:
    """Keep the best wall-clock numbers per scenario when the event
    schedule is unchanged; deterministic fields always come from *new*."""
    merged = dict(new)
    merged["scenarios"] = {}
    for name, entry in new["scenarios"].items():
        entry = dict(entry)
        base = old.get("scenarios", {}).get(name)
        if base is not None and base.get("digest") == entry.get("digest"):
            entry["wall_seconds"] = min(entry["wall_seconds"], base["wall_seconds"])
            entry["events_per_sec"] = max(
                entry["events_per_sec"], base["events_per_sec"]
            )
        merged["scenarios"][name] = entry
    return merged


def bench_scale_conformance(benchmark):
    baseline = json.loads(RESULT_PATH.read_text()) if RESULT_PATH.exists() else {}

    def experiment():
        quick = run_scale_suite(quick=True)
        full = run_scale_suite(quick=False)
        failures = []
        for mode, suite in (("quick", quick), ("full", full)):
            if mode in baseline:
                failures += check_scale_baseline(suite, baseline[mode])
            else:
                failures += check_scale_suite(suite)
        headline = full["scenarios"]["hier-2000"]
        if headline["peak_live_instances"] < MIN_PEAK_LIVE:
            failures.append(
                f"hier-2000 peaked at {headline['peak_live_instances']:,} live "
                f"instances, below the {MIN_PEAK_LIVE:,} scale target"
            )
        return quick, full, failures

    quick, full, failures = once(benchmark, experiment)

    print()
    for suite in (quick, full):
        for name, r in suite["scenarios"].items():
            print(
                f"  [{suite['mode']}] {name}: {r['admitted']} apps on "
                f"{r['machines']} machines (fanout {r['fanout']}) -> "
                f"peak {r['peak_live_instances']:,} live, "
                f"{r['bid_fanout_per_round']:.1f} polled/round, "
                f"{r['wall_seconds']:.1f}s wall"
            )
        print(f"  [{suite['mode']}] fan-out reduction {suite['fanout_reduction']:.2f}x")

    RESULT_PATH.write_text(
        json.dumps(
            {
                "quick": _ratchet(baseline.get("quick", {}), quick),
                "full": _ratchet(baseline.get("full", {}), full),
            },
            indent=2,
        )
        + "\n"
    )
    assert not failures, "; ".join(failures)
