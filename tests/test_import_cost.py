"""What a run pays for in imports.

Both checks run in a fresh interpreter: in this one, earlier tests have
already imported whatever a lazy import would pull in.

- networkx is a test-only dependency (``TaskGraph.to_networkx`` imports it
  when called); importing the package and its workload, soak and analysis
  layers must not load it.
- Once an environment is booted, submitting and running applications
  imports no module: set-up pays for every import, the timed phase for none.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])


def _python(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines()[-1]


def test_importing_the_package_does_not_load_networkx():
    loaded = _python(
        "import sys\n"
        "import repro, repro.soak, repro.workloads, repro.analysis\n"
        "print('networkx' in sys.modules)\n"
    )
    assert loaded == "False"


_RUN = """
import json, sys
from repro.core import VCEConfig, VirtualComputingEnvironment, workstation_cluster
from repro.machines import MachineClass
from repro.scheduler.execution_program import RunState
from repro.workloads import build_random_dag, build_stencil_graph

dag = build_random_dag(layers=3, width=3, seed=1)
stencil = build_stencil_graph(ranks=2, cells=16, iterations=3)
vce = VirtualComputingEnvironment(workstation_cluster(4), VCEConfig(seed=1)).boot()
before = set(sys.modules)
runs = [
    vce.submit(dag, class_map={node.name: None for node in dag}),
    vce.submit(stencil, class_map={"grid": MachineClass.WORKSTATION}),
]
for run in runs:
    vce.run_to_completion(run, timeout=100_000.0)
    assert run.state is RunState.DONE, run.error
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_submit_and_run_import_nothing():
    assert json.loads(_python(_RUN)) == []
