"""perfbench: the repository's one benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
        one workload; the last line of stdout is one JSON object with
        ``correct``, ``attempted``, ``failed`` and ``metrics`` (every
        end-to-end metric with --trace 0, every per-layer metric with 1)
    python3 perfbench/run.py [--seed N] [--seconds S] [--json OUT]
        every workload, untraced then traced
    python3 perfbench/run.py --repeat-check [--workload W]
        the acceptance procedure: ten seeds per workload, twice; prints the
        spread of every end-to-end metric against its bound and checks that
        everything counted or timed in simulated seconds repeats exactly

A run is a sequence of *repetitions*, each in a fresh interpreter
(``rep.py``) with its own sub-seed derived from ``--seed``; a metric is the
median over the repetitions, as measured.  The number of repetitions is a
function of ``--seconds`` alone (``REP_SECONDS`` is what one repetition costs
on the host the benchmark was defined on), so a seed always names the same
inputs.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

#: wall seconds one untraced repetition costs, set-up and checks included
REP_SECONDS = 2.3
#: a traced repetition is paired with an untraced one of the same sub-seed
PAIR_SECONDS = 6.0
MIN_REPS = 3
#: seeds per workload and round of --repeat-check (the acceptance procedure
#: this benchmark is held to uses ten)
CHECK_SEEDS = 10
#: a repetition that runs longer is killed and counts as failed
REP_TIMEOUT_S = 60.0
#: units of values that are counted or read off the simulated clock; on the
#: simulator they are a function of the sub-seed alone
EXACT_UNITS = ("count", "B", "sim_s", "1/sim_s")
#: no repetition is started after this much of a run (the contract's cap
#: is 180 s for the whole command)
RUN_BUDGET_S = 150.0


def contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def sub_seed(seed: int, rep: int) -> int:
    return seed * 1000 + rep


# ------------------------------------------------------------- repetitions


def run_rep(workload: str, seed: int, scale: float, trace: bool, timeout: float) -> dict:
    """One repetition in a fresh process group; never raises."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    argv = [
        sys.executable, str(HERE / "rep.py"), workload, str(seed), repr(scale),
        "1" if trace else "0", repr(time.time()),
    ]
    proc = subprocess.Popen(
        argv, env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the repetition and its daemons
        proc.communicate()
        return {"seed": seed, "crashed": f"timed out after {timeout:.0f} s"}
    if proc.returncode != 0:
        # a crashed net_chain supervisor may leave daemons in its group
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        tail = err.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
        return {"seed": seed, "crashed": tail[0]}
    return json.loads(out.strip().splitlines()[-1])


def summarize(samples: dict[str, list[float]], units: dict[str, str]) -> dict:
    """name -> median / quartiles / sample count over the repetitions."""
    out = {}
    for name, values in samples.items():
        # inclusive: with a handful of repetitions the default method
        # extrapolates beyond the smallest and largest sample
        q1, _q2, q3 = (
            statistics.quantiles(values, n=4, method="inclusive")
            if len(values) > 1 else values * 3
        )
        out[name] = {
            "value": statistics.median(values), "unit": units[name],
            "q1": q1, "q3": q3, "n": len(values),
        }
    return out


def measure(workload: str, seed: int, seconds: float, scale: float, trace: bool) -> dict:
    """One run of one workload: repetitions, checks, medians."""
    started = time.monotonic()
    pair = PAIR_SECONDS if trace else REP_SECONDS
    reps = max(1 if trace else MIN_REPS, round(seconds / pair))
    section = "per_layer" if trace else "end_to_end"
    samples: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    attempted = failed = 0
    crashed = 0
    work_unit = "?"
    notes: list[str] = []

    def rep(rep_seed: int, traced: bool) -> dict:
        left = RUN_BUDGET_S - (time.monotonic() - started)
        if left <= 0:
            return {"seed": rep_seed, "crashed": "run budget used up"}
        return run_rep(workload, rep_seed, scale, traced, min(REP_TIMEOUT_S, left))

    for i in range(reps):
        rep_seed = sub_seed(seed, i)
        result = plain = rep(rep_seed, False)
        if trace and "crashed" not in plain:
            result = rep(rep_seed, True)
        if "crashed" in result:
            crashed += 1
            notes.append(f"seed {rep_seed}: {result['crashed']}")
            continue
        rep_failed = result["failed"]
        notes += [f"seed {rep_seed}: {e}" for e in result["errors"]]
        if trace:
            if result["digest"] != plain["digest"]:
                rep_failed = result["attempted"]
                notes.append(f"seed {rep_seed}: traced digest differs from untraced")
            result["per_layer"]["perfbench.trace_overhead"]["value"] = (
                result["wall_s"] / plain["wall_s"]
            )
        work_unit = result["work_unit"]
        attempted += result["attempted"]
        failed += rep_failed
        if rep_failed:
            continue  # a repetition with failures reports no speed
        for name, metric in result[section].items():
            samples.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    # a crashed repetition attempted what the others did
    per_rep = attempted // max(1, reps - crashed) or 1
    attempted += crashed * per_rep
    failed += crashed * per_rep
    return {
        "workload": workload, "seed": seed, "trace": int(trace), "reps": reps,
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "work_unit": work_unit,
        "metrics": summarize(samples, units), "samples": samples, "notes": notes,
        "elapsed_s": time.monotonic() - started,
    }


# ---------------------------------------------------------------- printing


def print_header() -> None:
    print(
        f"perfbench: nproc={os.cpu_count()} python={platform.python_version()} "
        f"({platform.python_implementation()})"
    )


def print_run(result: dict) -> None:
    kind = "traced" if result["trace"] else "untraced"
    print(
        f"\n{result['workload']} seed={result['seed']} {kind}: {result['reps']} "
        f"repetitions, {result['attempted']} operations, {result['failed']} failed, "
        f"work counted in {result['work_unit']}, {result['elapsed_s']:.1f} s"
    )
    for note in result["notes"][:10]:
        print(f"  ! {note}")
    for name, m in result["metrics"].items():
        print(
            f"  {name:<52} {m['value']:>14.6g} {m['unit']:<8}"
            f" [{m['q1']:.6g} .. {m['q3']:.6g}] n={m['n']}"
        )


def contract_line(result: dict) -> str:
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in result["metrics"].items()
        },
    })


# ------------------------------------------------------------ repeat check


def spread(values: list[float]) -> float:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def repeat_check(spec: dict, workloads: list[str], seconds: float, scale: float) -> int:
    """Ten seeds per workload, twice: every spread within its bound and every
    second median no worse than the first by more than the bound.  On the
    simulator everything counted or timed in simulated seconds (end-to-end
    and, from one traced run per round, per-layer) must also be the same
    in both rounds for every sub-seed: those values have no noise, so a
    difference is a change of behaviour whatever the bound says."""
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    failures: list[str] = []
    record: dict[str, Any] = {}
    samples: dict[str, list[list[float]]] = {}

    def exact(result: dict) -> dict[str, list[float]]:
        return {
            name: values for name, values in result["samples"].items()
            if units[name] in EXACT_UNITS
        }

    for workload in workloads:
        rounds: list[dict[str, list[float]]] = []
        exact_values: list[dict[Any, Any]] = []
        for round_no in (1, 2):
            values: dict[str, list[float]] = {name: [] for name in bounds}
            per_seed: dict[Any, Any] = {}
            for seed in range(1, CHECK_SEEDS + 1):
                result = measure(workload, seed, seconds, scale, trace=False)
                print(f"  {workload} round {round_no} seed {seed}: "
                      f"{result['elapsed_s']:.1f} s", flush=True)
                if not result["correct"]:
                    failures.append(f"{workload} seed {seed}: {result['notes'][:2]}")
                for name in bounds.keys() & result["metrics"].keys():
                    values[name].append(result["metrics"][name]["value"])
                per_seed[seed] = exact(result)
            traced = measure(workload, 1, seconds, scale, trace=True)
            if not traced["correct"]:
                failures.append(f"{workload} traced: {traced['notes'][:2]}")
            per_seed["traced"] = exact(traced)
            rounds.append(values)
            exact_values.append(per_seed)
        if workload != "net_chain":  # its clock is the wall clock
            for key, first in exact_values[0].items():
                second = exact_values[1][key]
                for name in sorted(first.keys() | second.keys()):
                    if first.get(name) != second.get(name):
                        failures.append(f"{workload} {name} (seed {key}): differs "
                                        "between rounds")
        record[workload] = {}
        print(f"\n{workload}: {CHECK_SEEDS} seeds x 2")
        print(f"  {'metric':<16} {'median 1':>12} {'median 2':>12} {'ratio':>7} "
              f"{'spread 1':>9} {'spread 2':>9} {'bound':>6}")
        for name, metric in bounds.items():
            first, second = rounds[0][name], rounds[1][name]
            if min(len(first), len(second)) < 2:
                failures.append(f"{workload} {name}: too few runs gave a value")
                continue
            m1, m2 = statistics.median(first), statistics.median(second)
            s1, s2 = spread(first), spread(second)
            worse = (m2 - m1) / m1 if metric["better"] == "lower" else (m1 - m2) / m1
            bound = metric["bound"]
            # the acceptance procedure does not hold the spread of set-up
            # time to the bound, only its medians
            held = name != "setup_s"
            print(f"  {name:<16} {m1:>12.6g} {m2:>12.6g} {m2 / m1:>7.3f} "
                  f"{s1:>9.4f} {s2:>9.4f} {bound:>6.2f}"
                  f"{'' if held else '  (spread not held to the bound)'}")
            record[workload][name] = {
                "median_1": m1, "median_2": m2, "spread_1": s1, "spread_2": s2,
                "bound": bound,
            }
            samples[f"{workload}.{name}"] = [first, second]
            if held and max(s1, s2) > bound:
                failures.append(f"{workload} {name}: spread {max(s1, s2):.3f} > {bound}")
            if worse > bound:
                failures.append(f"{workload} {name}: second median worse by {worse:.3f}")
    spreads = HERE / "spreads.json"
    if spreads.exists():  # a check of one workload keeps the other rows
        record = {**json.loads(spreads.read_text()), **record}
    spreads.write_text(json.dumps(record, indent=1) + "\n")
    (RESULTS / "repeat_check.samples.json").write_text(json.dumps(samples) + "\n")
    for failure in failures:
        print(f"FAIL {failure}")
    print(f"\nrepeat check: {'FAILED' if failures else 'ok'}")
    return 1 if failures else 0


# -------------------------------------------------------------------- main


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--json", metavar="OUT", help="also write the results here")
    parser.add_argument("--repeat-check", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print("perfbench: no src/repro next to perfbench/ — nothing to measure",
              file=sys.stderr)
        return 2
    spec = contract()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        print(f"perfbench: unknown workload {args.workload!r} (known: {names})",
              file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    RESULTS.mkdir(exist_ok=True)
    lock = open(RESULTS / ".lock", "w")
    try:
        fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        print("perfbench: another run is measuring in this checkout; two at "
              "once would time each other", file=sys.stderr)
        return 2

    started = time.monotonic()
    print_header()
    selected = [args.workload] if args.workload else names
    if args.repeat_check:
        status = repeat_check(spec, selected, seconds, args.scale)
        print(f"total elapsed {time.monotonic() - started:.1f} s")
        return status

    modes = [bool(args.trace)] if args.trace is not None else [False, True]
    results = [
        measure(workload, args.seed, seconds, args.scale, trace)
        for workload in selected
        for trace in modes
    ]
    for result in results:
        print_run(result)
    print(f"\ntotal elapsed {time.monotonic() - started:.1f} s")
    if args.json:
        Path(args.json).write_text(json.dumps(results, indent=1) + "\n")
    if any(not result["metrics"] for result in results):
        print("perfbench: no repetition produced a result", file=sys.stderr)
        return 3
    if len(results) == 1:
        print(contract_line(results[0]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {},
        }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
