"""Golden replay digests: the whole-run determinism regression gate.

Each scenario runs a workload to completion and digests the full event log
(:func:`event_log_digest`). The digests are checked against golden files
in ``tests/golden/`` that were generated in a *different* process — so any
nondeterminism that leaks into the event schedule (hash-randomized set
iteration, unseeded RNG, wall-clock reads) fails these tests under CI's
randomized ``PYTHONHASHSEED`` even when a single process is self-consistent.

Each scenario also runs twice in-process to pin rerun determinism (fresh
simulator state, same digest).

Regenerate after an *intended* event-schedule change::

    PYTHONPATH=src python tests/test_determinism_golden.py

and commit the updated files with the change that caused them.
"""

from pathlib import Path

import pytest

from repro.trace.replay import event_log_digest

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def _randomdag(seed: int):
    from repro.core import VCEConfig, VirtualComputingEnvironment, workstation_cluster
    from repro.scheduler.execution_program import RunState
    from repro.workloads import build_random_dag

    graph = build_random_dag(layers=8, width=8, seed=seed)
    vce = VirtualComputingEnvironment(
        workstation_cluster(4), VCEConfig(seed=seed)
    ).boot()
    run = vce.submit(graph, class_map={node.name: None for node in graph})
    vce.run_to_completion(run, timeout=100_000.0)
    assert run.state is RunState.DONE, run.error
    return vce.sim.log


def _chaos_mix(seed: int):
    from repro.core import VCEConfig, VirtualComputingEnvironment, heterogeneous_cluster
    from repro.migration.failover import FailoverConfig
    from repro.scheduler.execution_program import RunState
    from repro.workloads import WEATHER_SCRIPT, build_pipeline_graph, weather_programs

    config = VCEConfig(
        seed=seed,
        reliable_transport=True,
        failover=FailoverConfig(),
    )
    vce = VirtualComputingEnvironment(heterogeneous_cluster(), config).boot()
    vce.chaos("chaos-mix", seed=seed)
    runs = [
        vce.run_script(WEATHER_SCRIPT, weather_programs(), name="weather"),
        vce.submit(build_pipeline_graph(stages=4, stage_work=15.0, name="pipe")),
    ]
    for run in runs:
        vce.run_to_completion(run, timeout=2_000.0)
        assert run.state is RunState.DONE, run.error
    vce.run(until=vce.sim.now + 30.0)
    return vce.sim.log


SCENARIOS = {
    "randomdag_seed3": lambda: _randomdag(3),
    "randomdag_seed11": lambda: _randomdag(11),
    "chaosmix_seed3": lambda: _chaos_mix(3),
    "chaosmix_seed11": lambda: _chaos_mix(11),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_digest_matches_golden(name):
    golden_path = GOLDEN_DIR / f"{name}.digest"
    assert golden_path.exists(), (
        f"missing golden file {golden_path}; regenerate with "
        f"`PYTHONPATH=src python {Path(__file__).name}`"
    )
    digest = event_log_digest(SCENARIOS[name]())
    assert digest == golden_path.read_text().strip(), (
        f"{name}: replay digest diverged from the golden recording — either "
        "nondeterminism leaked into the event schedule, or an intended "
        "change needs regenerated goldens (see module docstring)"
    )


@pytest.mark.parametrize("name", ["randomdag_seed3", "chaosmix_seed3"])
def test_digest_stable_across_reruns(name):
    scenario = SCENARIOS[name]
    assert event_log_digest(scenario()) == event_log_digest(scenario())


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, scenario in sorted(SCENARIOS.items()):
        digest = event_log_digest(scenario())
        (GOLDEN_DIR / f"{name}.digest").write_text(digest + "\n")
        print(f"{name}: {digest}")
