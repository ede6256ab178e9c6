"""Helpers to stand up a full VCE (daemons + directory + runtime) in tests.

Machine *composition* lives in :mod:`repro.core.cluster` — the helpers here
only add what tests need on top: per-machine load/speed overrides
(:func:`workstation_farm`), the low-level daemon wiring of
:func:`make_vce` for tests that poke at scheduler internals, and
:func:`make_full_vce` for tests that want the real
:class:`~repro.core.environment.VirtualComputingEnvironment` facade
(tenancy, hierarchy, telemetry) on a small cluster.
"""

from __future__ import annotations

from repro.core import VCEConfig, VirtualComputingEnvironment
from repro.core.cluster import heterogeneous_cluster, workstation_cluster
from repro.machines import Machine, MachineClass, MachineDatabase
from repro.netsim import Network, Simulator
from repro.runtime import RuntimeManager
from repro.scheduler import DaemonConfig, GroupDirectory, SchedulerDaemon
from repro.isis import IsisConfig


class VCECluster:
    """A booted VCE: hosts, machines, daemons, directory, runtime."""

    def __init__(self, sim, net, db, directory, runtime, daemons, user_host):
        self.sim = sim
        self.net = net
        self.db = db
        self.directory = directory
        self.runtime = runtime
        self.daemons = daemons  # machine name -> SchedulerDaemon
        self.user_host = user_host

    def run(self, until=None, **kw):
        return self.sim.run(until=until, **kw)

    def daemon_on(self, machine_name):
        return self.daemons[machine_name]

    def leader_of(self, arch_class):
        addr = self.directory.leader(arch_class)
        return self.daemons[addr.host]


def wire_machines(net: Network, db: MachineDatabase, machines) -> dict:
    """Register *machines* onto *net* hosts and into *db*; returns
    machine name -> Host. The one wiring loop every cluster builder
    shares (the environment facade has its own copy because it also
    spawns daemons inline)."""
    hosts = {}
    for machine in machines:
        host = net.add_host(machine.name, speed=machine.speed)
        host.machine = machine
        db.register(machine)
        hosts[machine.name] = host
    return hosts


def make_vce(
    machines=None,
    seed=0,
    daemon_config=None,
    isis_config=None,
    settle=15.0,
    binary_service=None,
):
    """Boot a VCE cluster.

    Args:
        machines: list of Machine objects (default: 4 idle workstations).
        settle: simulation time allotted for group formation.
    """
    sim = Simulator(seed)
    net = Network(sim)
    db = MachineDatabase()
    directory = GroupDirectory()
    runtime = RuntimeManager(sim, net, binary_service=binary_service)
    daemon_config = daemon_config or DaemonConfig()
    isis_config = isis_config or IsisConfig()

    if machines is None:
        machines = workstation_cluster(4)

    hosts = wire_machines(net, db, machines)
    daemons = {}
    first_of_class = {}
    for machine in machines:
        contacts = None
        if machine.arch_class in first_of_class:
            contacts = [first_of_class[machine.arch_class]]
        daemon = SchedulerDaemon(
            "vced", machine, directory, contacts, daemon_config, isis_config
        )
        hosts[machine.name].spawn(daemon)
        if machine.arch_class not in first_of_class:
            first_of_class[machine.arch_class] = daemon.address
        daemons[machine.name] = daemon

    user_host = net.add_host("user")
    user_host.machine = Machine("user", MachineClass.WORKSTATION)
    # the user workstation is not registered as a biddable machine

    sim.run(until=settle)
    return VCECluster(sim, net, db, directory, runtime, daemons, user_host)


def make_full_vce(
    n_machines=8,
    seed=0,
    fanout=1,
    settle=20.0,
    machines=None,
    **config_kw,
) -> VirtualComputingEnvironment:
    """Boot the real environment facade on a small workstation cluster —
    the builder for hierarchy/tenancy/soak tests (*fanout* is
    ``DaemonConfig.leader_fanout``; ``tenants=`` and backend selection
    flow through *config_kw*)."""
    config = VCEConfig(
        seed=seed,
        daemon=DaemonConfig(leader_fanout=fanout),
        settle_time=settle,
        **config_kw,
    )
    return VirtualComputingEnvironment(
        machines if machines is not None else workstation_cluster(n_machines),
        config,
    ).boot()


def workstation_farm(n, loads=None, speeds=None):
    """n workstation Machine objects with optional per-machine load/speed.

    With neither override this is exactly
    :func:`repro.core.cluster.workstation_cluster`.
    """
    if loads is None and speeds is None:
        return workstation_cluster(n)
    machines = workstation_cluster(n)
    out = []
    for i, machine in enumerate(machines):
        out.append(
            Machine(
                machine.name,
                machine.arch_class,
                speed=(speeds[i] if speeds else machine.speed),
                background_load=(loads[i] if loads else machine.background_load),
                memory_mb=machine.memory_mb,
            )
        )
    return out


def heterogeneous_site(n_ws=4, n_mimd=2, n_simd=1):
    """The paper's 'typical heterogeneous environment': a workstation
    group, a MIMD group and a SIMD group (delegates to
    :func:`repro.core.cluster.heterogeneous_cluster`)."""
    return heterogeneous_cluster(n_ws, n_mimd, n_simd)
