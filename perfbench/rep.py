"""One repetition of one workload in this (fresh) process.

Started by ``run.py`` as ``python perfbench/rep.py WORKLOAD SEED SCALE TRACE
SPAWNED_AT``; prints one JSON object as the last line of stdout.  Everything
from interpreter start to "ready to submit" is set-up: imports, generating
the workload from the seed, building the environment, ``boot()``.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]


def main(argv: list[str]) -> int:
    name, seed, scale, trace, spawned_at = (
        argv[0], int(argv[1]), float(argv[2]), argv[3] == "1", float(argv[4])
    )
    import metrics
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, scale)
    tracer = None
    try:
        workload.setup()
        if trace:
            from layers import LayerTracer

            tracer = LayerTracer(workload)
            tracer.install()
        setup_s = time.time() - spawned_at
        before = metrics.counters(workload)
        try:
            wall_s = workload.run()
        finally:
            if tracer is not None:
                tracer.restore()
        delta = metrics.counters(workload)
        delta.subtract(before)
    finally:
        workload.close()
    # after teardown, so the daemons of net_chain have been waited for
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload.backend == "network":
        rss_kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    outcome = workload.outcome()
    result = {
        "workload": name,
        "seed": seed,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "errors": outcome.errors + outcome.problems[:5],
        "digest": outcome.digest,
        "work": outcome.work,
        "work_unit": outcome.work_unit,
        "wall_s": wall_s,
        "end_to_end": metrics.end_to_end(outcome, wall_s, setup_s, rss_kib / 1024.0),
    }
    if tracer is not None:
        result["per_layer"] = metrics.per_layer(workload, outcome, tracer, delta, wall_s)
        tracer.dump(HERE / "results", name)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
