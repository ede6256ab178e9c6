"""What a run pays for in imports.

The subprocess checks run in a fresh interpreter: in this one, earlier
tests have already imported whatever a lazy import would pull in.

- A package ``__init__`` imports none of its submodules: its re-exports
  resolve on first use (``repro._lazy``). So a netexec daemon process
  loads the codec, frames and transport it runs, not the simulator.
- networkx is a test-only dependency (``TaskGraph.to_networkx`` imports it
  when called); importing the package and its workload, soak and analysis
  layers must not load it.
- Once an environment is booted, submitting and running applications
  imports no module: set-up pays for every import, the timed phase for none.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

PACKAGE_DIR = Path(repro.__file__).resolve().parent
SRC = str(PACKAGE_DIR.parent)
PACKAGES = sorted(
    ".".join(init.parent.relative_to(SRC).parts) for init in PACKAGE_DIR.rglob("__init__.py")
)


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
        "import importlib, sys\n"
        "import repro.soak\n"
        f"for package in {PACKAGES!r}:\n"
        "    module = importlib.import_module(package)\n"
        "    for name in module.__all__:\n"
        "        getattr(module, name)\n"
        "print('networkx' in sys.modules)\n"
    )
    assert loaded == "False"


def test_a_daemon_imports_what_it_runs():
    loaded = json.loads(_python(
        "import json, sys\n"
        "import repro.netexec.daemonhost\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    ))
    ours = [name for name in loaded if name == "repro" or name.startswith("repro.")]
    assert len(ours) <= 25, ours
    for heavy in ("repro.core", "repro.isis", "repro.analysis", "repro.script"):
        assert not any(name == heavy or name.startswith(heavy + ".") for name in ours), heavy
    assert "numpy" not in loaded


@pytest.mark.parametrize("package", PACKAGES)
def test_every_export_resolves_and_is_listed(package):
    module = importlib.import_module(package)
    listed = dir(module)
    for name in module.__all__:
        assert name in listed, name
        getattr(module, name)
        assert name in vars(module), name  # cached on first use
    with pytest.raises(AttributeError):
        module.no_such_export


@pytest.mark.parametrize("package", PACKAGES)
def test_package_init_imports_only_the_helper(package):
    init = PACKAGE_DIR.parent.joinpath(*package.split("."), "__init__.py")
    imported = []
    for node in ast.parse(init.read_text()).body:
        if isinstance(node, ast.ImportFrom) and node.module:
            imported.append(node.module)
        elif isinstance(node, ast.Import):
            imported.extend(alias.name for alias in node.names)
    assert [m for m in imported if m.split(".")[0] == "repro"] == ["repro._lazy"]


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

# a tenant soak with hierarchical bidding (leader_fanout > 1) under a fault
# schedule armed after set-up: drops, a host bounce and a partition, which
# failover must recover from by re-dispatching
_SOAK = """
import json, sys
from repro.core import VCEConfig, VirtualComputingEnvironment, workstation_cluster
from repro.faults.schedule import FaultSchedule
from repro.isis.member import IsisConfig
from repro.migration.failover import FailoverConfig
from repro.scheduler.daemon import DaemonConfig
from repro.soak import SoakConfig, SoakDriver
from repro.workloads.tenants import build_population

cfg = SoakConfig(
    tenants=3, apps=12, machines=12, fanout=3, seed=1, instances=(2, 4),
    work=(4.0, 8.0), arrival_span=30.0, settle=20.0,
)
population = build_population(
    cfg.tenants, seed=cfg.seed, mean_quota=8, instances=cfg.instances, work=cfg.work
)
vce = VirtualComputingEnvironment(
    workstation_cluster(cfg.machines),
    VCEConfig(
        seed=cfg.seed, daemon=DaemonConfig(leader_fanout=cfg.fanout),
        tenants=population, settle_time=cfg.settle,
        failover=FailoverConfig(max_redispatches=20),
        isis=IsisConfig(require_majority=True),
    ),
).boot()
driver = SoakDriver(vce, cfg, population)
before = set(sys.modules)
vce.chaos(
    FaultSchedule("imports")
    .drop_window(0.0, 60.0, 0.05)
    .bounce(6.0, "ws4", down_for=4.0)
    .partition_window(15.0, 5.0, ["ws7", "ws8"])
)
vce.user_host.spawn(driver)
vce.run(until=vce.sim.now + 5_000.0, stop_when=lambda: driver.finished)
assert driver.finished
assert vce.failover.redispatches > 0
assert driver.completed == cfg.apps, driver.completed
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_submit_and_run_import_nothing():
    assert json.loads(_python(_RUN)) == []
    assert json.loads(_python(_SOAK)) == []
