"""The serve driver: advance a simulation in slices while streaming.

:class:`ServeSession` owns one VCE plus its attached
:class:`~repro.controlplane.entities.ControlPlaneModel` and advances the
simulation in fixed sim-time **slices**. The HTTP server runs the slices
inside a single asyncio task, sleeping between them — first for whatever
the :class:`~repro.netsim.pacing.WallClockPacer` asks (live pacing), then
at least once around the event loop — so connection handlers and control
actions only ever run *between* slices, never concurrently with
``sim.run``. That single-threaded discipline is what lets control
handlers mutate the VCE directly (submit, chaos, drain) with no locks
and no effect on determinism: every mutation lands at a slice boundary,
exactly as if a script had made the same call.

The driver only ever calls ``sim.run(until=...)`` through the backend seam.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.controlplane.entities import ControlPlaneModel
from repro.netsim.pacing import WallClockPacer
from repro.scheduler.execution_program import RunState
from repro.util.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.controlplane.hub import SubscriptionHub
    from repro.core.environment import VirtualComputingEnvironment
    from repro.scheduler.execution_program import AppRun

#: workloads ``repro serve --workload`` can synthesize without a script
WORKLOAD_NAMES = ("randomdag", "stencil", "weather")


def submit_workload(
    vce: "VirtualComputingEnvironment",
    kind: str,
    layers: int = 8,
    width: int = 8,
    seed: int | None = None,
    ranks: int = 4,
    iterations: int = 8,
) -> "AppRun":
    """Build and submit one of the named demo workloads to *vce*."""
    seed = vce.config.seed if seed is None else seed
    if kind == "randomdag":
        from repro.workloads import build_random_dag

        graph = build_random_dag(layers=layers, width=width, seed=seed)
        return vce.submit(graph, class_map={node.name: None for node in graph})
    if kind == "stencil":
        from repro.machines import MachineClass
        from repro.workloads import build_stencil_graph

        graph = build_stencil_graph(ranks=ranks, cells=64, iterations=iterations)
        return vce.submit(graph, class_map={"grid": MachineClass.WORKSTATION})
    if kind == "weather":
        from repro.workloads import WEATHER_SCRIPT, weather_programs

        return vce.run_script(WEATHER_SCRIPT, weather_programs(), name="weather")
    raise ConfigurationError(
        f"unknown workload {kind!r} (expected one of {', '.join(WORKLOAD_NAMES)})"
    )


class ServeSession:
    """One streaming run: a VCE, its entity model, and slice bookkeeping.

    Args:
        vce: the environment to drive (booted here if it is not yet).
        slice_seconds: simulated seconds advanced per :meth:`advance`.
        pacer: wall-clock pacer; default free-runs.
        hub: subscription hub to publish into (one is created otherwise).
    """

    def __init__(
        self,
        vce: "VirtualComputingEnvironment",
        slice_seconds: float = 2.0,
        pacer: WallClockPacer | None = None,
        hub: "SubscriptionHub | None" = None,
    ) -> None:
        if slice_seconds <= 0:
            raise ConfigurationError("slice_seconds must be positive")
        self.vce = vce
        self.slice = slice_seconds
        self.pacer = pacer or WallClockPacer(0.0)
        self.model = ControlPlaneModel(vce, hub).attach()
        self.hub = self.model.hub
        self.runs: list[AppRun] = []
        self.slices = 0
        if not vce._booted:
            vce.boot()
        self.pacer.start(vce.sim.now)

    # ---------------------------------------------------------------- control

    def track(self, run: "AppRun") -> "AppRun":
        """Register *run* so :attr:`workload_done` accounts for it."""
        self.runs.append(run)
        return run

    def submit(self, kind: str, **params) -> "AppRun":
        """Submit a named workload and track it."""
        return self.track(submit_workload(self.vce, kind, **params))

    @property
    def workload_done(self) -> bool:
        """True once every tracked run reached a terminal state (vacuously
        False with nothing tracked — an idle server is never 'done')."""
        return bool(self.runs) and all(
            r.state in (RunState.DONE, RunState.FAILED) for r in self.runs
        )

    # --------------------------------------------------------------- stepping

    def advance(self, slice_seconds: float | None = None) -> float:
        """Run one simulation slice; returns the new sim time. Publishes a
        coalescable ``sim`` clock event so streams see progress even when
        the slice itself was quiet."""
        sim = self.vce.sim
        target = sim.now + (slice_seconds if slice_seconds is not None else self.slice)
        sim.run(until=target)
        self.slices += 1
        self.hub.publish(
            "sim",
            "clock",
            sim.now,
            {
                "now": sim.now,
                "slices": self.slices,
                "runs_tracked": len(self.runs),
                "runs_done": sum(
                    1
                    for r in self.runs
                    if r.state in (RunState.DONE, RunState.FAILED)
                ),
                "workload_done": self.workload_done,
            },
            coalescable=True,
        )
        return sim.now

    def sleep_for(self) -> float:
        """Wall seconds the server should sleep before the next slice."""
        return self.pacer.sleep_for(self.vce.sim.now)
