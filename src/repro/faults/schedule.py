"""Declarative, seeded fault schedules and the chaos controller.

A :class:`FaultSchedule` is a pure description — a named, ordered list of
:class:`FaultAction` records built either programmatically (the fluent
builder methods) or from one of the named recipes in :data:`SCHEDULES`.
Because a schedule carries no simulator state, the same schedule object can
be applied to any number of fresh VCEs; combined with a fixed ``seed`` the
whole chaotic run is deterministic and byte-identical on replay.

The :class:`ChaosController`, the one fault injector, turns a schedule
into scheduled simulator callbacks: host crashes and daemon reboots,
message drop/duplicate/reorder windows, link latency spikes, and timed
network partitions. Every injected fault emits a ``fault.*`` event and
bumps the ``faults_injected_total`` telemetry counter so ``repro top``
(and the chaos CLI report) can show injected faults next to the
``recovery.*`` actions the execution layer takes in response.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.util.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.netsim.kernel import Simulator
    from repro.netsim.network import Network

#: Action kinds a schedule may contain.
KINDS = (
    "crash",  # host goes down (all processes crash)
    "restart",  # host comes back up and its scheduler daemon is rebooted
    "drop",  # message-drop window: value = drop probability
    "duplicate",  # duplicate-delivery window: value = duplication probability
    "reorder",  # reordering window: value = reorder probability
    "latency",  # latency spike window: value = multiplicative factor
    "partition",  # timed network partition: groups = the connectivity islands
)


@dataclass(frozen=True)
class FaultAction:
    """One scheduled fault.

    ``time`` is relative to when the schedule is armed
    (:meth:`ChaosController.apply`). Window kinds (drop, duplicate,
    reorder, latency, partition) restore the previous setting after
    ``duration`` simulated seconds; point kinds (crash, restart) ignore it.
    """

    time: float
    kind: str
    target: str = ""
    value: float = 0.0
    duration: float = 0.0
    groups: tuple[tuple[str, ...], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise SimulationError(f"unknown fault kind {self.kind!r}")
        if self.time < 0:
            raise SimulationError("fault time must be >= 0")


class FaultSchedule:
    """A named, ordered fault plan (see module docstring)."""

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        self.actions: list[FaultAction] = []

    # ------------------------------------------------------------- builders

    def add(self, action: FaultAction) -> "FaultSchedule":
        self.actions.append(action)
        self.actions.sort(key=lambda a: (a.time, KINDS.index(a.kind), a.target))
        return self

    def crash(self, time: float, host: str) -> "FaultSchedule":
        return self.add(FaultAction(time, "crash", target=host))

    def restart(self, time: float, host: str) -> "FaultSchedule":
        return self.add(FaultAction(time, "restart", target=host))

    def bounce(self, time: float, host: str, down_for: float = 4.0) -> "FaultSchedule":
        """Daemon crash-restart: the host dies at *time* and reboots (with a
        fresh scheduler daemon) ``down_for`` seconds later."""
        return self.crash(time, host).restart(time + down_for, host)

    def churn(
        self,
        hosts: list[str],
        rng: random.Random,
        mean_up: float,
        mean_down: float,
        until: float,
    ) -> "FaultSchedule":
        """Independent exponential up/down cycling of each host in *hosts*
        until *until*: a host crashes after an up time of mean *mean_up*
        and restarts after a down time of mean *mean_down*. Draws come
        from *rng*, host by host in list order, so one stream replays the
        same crash times."""
        for host in hosts:
            now = 0.0
            while True:
                down_at = now + rng.expovariate(1.0 / mean_up)
                if down_at >= until:
                    break
                now = down_at + rng.expovariate(1.0 / mean_down)
                self.crash(down_at, host)
                if now < until:
                    self.restart(now, host)
        return self

    def drop_window(self, time: float, duration: float, rate: float) -> "FaultSchedule":
        return self.add(FaultAction(time, "drop", value=rate, duration=duration))

    def duplicate_window(
        self, time: float, duration: float, rate: float
    ) -> "FaultSchedule":
        return self.add(FaultAction(time, "duplicate", value=rate, duration=duration))

    def reorder_window(
        self, time: float, duration: float, rate: float
    ) -> "FaultSchedule":
        return self.add(FaultAction(time, "reorder", value=rate, duration=duration))

    def latency_spike(
        self, time: float, duration: float, factor: float
    ) -> "FaultSchedule":
        return self.add(FaultAction(time, "latency", value=factor, duration=duration))

    def partition_window(
        self, time: float, duration: float, *groups: list[str] | tuple[str, ...]
    ) -> "FaultSchedule":
        frozen = tuple(tuple(g) for g in groups)
        return self.add(
            FaultAction(time, "partition", duration=duration, groups=frozen)
        )

    # ------------------------------------------------------------------ misc

    def __len__(self) -> int:
        return len(self.actions)

    def __iter__(self):
        return iter(self.actions)

    def __repr__(self) -> str:  # pragma: no cover - repr convenience
        return f"FaultSchedule({self.name!r}, {len(self.actions)} actions)"


class ChaosController:
    """Applies a :class:`FaultSchedule` to a live simulation.

    Args:
        sim: the simulator.
        network: the cluster network (fault knobs live here).
        restart_daemon: callable invoked with a host name after the host
            recovers, responsible for rebooting its scheduler daemon (the
            VCE supplies :meth:`~repro.core.environment
            .VirtualComputingEnvironment.restart_daemon`). When None,
            ``restart`` actions only bring the host back up.
    """

    def __init__(
        self,
        sim: "Simulator",
        network: "Network",
        restart_daemon: Callable[[str], None] | None = None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.restart_daemon = restart_daemon
        self.injected: dict[str, int] = {}
        self.schedule: FaultSchedule | None = None

    # ------------------------------------------------------------------ apply

    def apply(self, schedule: FaultSchedule) -> "ChaosController":
        """Arm every action in *schedule*; action times count from now."""
        self.schedule = schedule
        base = self.sim.now
        for action in schedule:
            self.sim.schedule_at(base + action.time, lambda a=action: self._fire(a))
        self.sim.emit(
            "fault.schedule", "chaos", name=schedule.name, actions=len(schedule)
        )
        return self

    def report(self) -> dict[str, int]:
        """Injected-fault counts by kind (windows count once at open)."""
        return dict(sorted(self.injected.items()))

    # ------------------------------------------------------------------ fire

    def _count(self, kind: str) -> None:
        self.injected[kind] = self.injected.get(kind, 0) + 1
        tel = self.sim.telemetry
        if tel is not None:
            tel.counter(
                "faults_injected_total", "faults injected by the chaos controller",
                labels=("kind",),
            ).labels(kind).inc()

    def _fire(self, action: FaultAction) -> None:
        handler = getattr(self, f"_do_{action.kind}")
        handler(action)

    def _do_crash(self, action: FaultAction) -> None:
        host = self.network.host(action.target)
        if not host.up:
            return
        self._count("crash")
        self.sim.emit("fault.crash", action.target)
        host.crash()

    def _do_restart(self, action: FaultAction) -> None:
        host = self.network.host(action.target)
        self._count("restart")
        if not host.up:
            self.sim.emit("fault.recover", action.target)
            host.recover()
        self.sim.emit("fault.daemon_restart", action.target)
        if self.restart_daemon is not None:
            self.restart_daemon(action.target)

    def _window(
        self,
        action: FaultAction,
        read: Callable[[], float],
        write: Callable[[float], None],
    ) -> None:
        previous = read()
        self._count(action.kind)
        self.sim.emit(
            f"fault.{action.kind}", "chaos",
            value=action.value, duration=action.duration,
        )
        write(action.value)

        def close() -> None:
            write(previous)
            self.sim.emit(f"fault.{action.kind}_end", "chaos", restored=previous)

        self.sim.schedule(action.duration, close)

    def _do_drop(self, action: FaultAction) -> None:
        net = self.network
        self._window(action, lambda: net._drop_rate, net.set_drop_rate)

    def _do_duplicate(self, action: FaultAction) -> None:
        net = self.network
        self._window(action, lambda: net._duplicate_rate, net.set_duplicate_rate)

    def _do_reorder(self, action: FaultAction) -> None:
        net = self.network
        self._window(action, lambda: net._reorder_rate, net.set_reorder_rate)

    def _do_latency(self, action: FaultAction) -> None:
        net = self.network
        self._window(action, lambda: net.latency_factor, net.set_latency_factor)

    def _do_partition(self, action: FaultAction) -> None:
        self._count("partition")
        self.sim.emit(
            "fault.partition", "chaos",
            groups=[list(g) for g in action.groups], duration=action.duration,
        )
        self.network.partition(*[set(g) for g in action.groups])

        def close() -> None:
            self.network.heal()
            self.sim.emit("fault.partition_end", "chaos")

        self.sim.schedule(action.duration, close)


# --------------------------------------------------------------------- recipes


def _daemon_bounce(hosts: list[str], rng: random.Random, start: float) -> FaultSchedule:
    schedule = FaultSchedule(
        "daemon-bounce", "one scheduler daemon crashes and reboots mid-run"
    )
    victim = rng.choice(hosts)
    schedule.bounce(start + 2.0 + rng.random() * 2.0, victim, down_for=4.0)
    return schedule


def _lossy(hosts: list[str], rng: random.Random, start: float) -> FaultSchedule:
    schedule = FaultSchedule(
        "lossy", "5% message drop plus light duplication and reordering"
    )
    schedule.drop_window(start, 10_000.0, 0.05)
    schedule.duplicate_window(start, 10_000.0, 0.02)
    schedule.reorder_window(start, 10_000.0, 0.02)
    return schedule


def _partition(hosts: list[str], rng: random.Random, start: float) -> FaultSchedule:
    schedule = FaultSchedule("partition", "one timed partition splitting the cluster")
    split = max(1, len(hosts) // 2)
    shuffled = hosts[:]
    rng.shuffle(shuffled)
    # name only the minority island: everything else (including the user's
    # workstation) stays connected in the implicit remainder group
    schedule.partition_window(start + 3.0 + rng.random(), 6.0, shuffled[:split])
    return schedule


def _latency(hosts: list[str], rng: random.Random, start: float) -> FaultSchedule:
    schedule = FaultSchedule("latency", "a 5x link-latency spike")
    schedule.latency_spike(start + 2.0 + rng.random(), 8.0, 5.0)
    return schedule


def _chaos_mix(hosts: list[str], rng: random.Random, start: float) -> FaultSchedule:
    """The acceptance-criteria mix: daemon crash-restart + 5% drop + one
    timed partition."""
    schedule = FaultSchedule(
        "chaos-mix", "daemon bounce + 5% message drop + one timed partition"
    )
    schedule.drop_window(start, 10_000.0, 0.05)
    victim = rng.choice(hosts)
    schedule.bounce(start + 2.0 + rng.random() * 2.0, victim, down_for=4.0)
    split = max(1, len(hosts) // 2)
    shuffled = hosts[:]
    rng.shuffle(shuffled)
    schedule.partition_window(start + 10.0 + rng.random() * 2.0, 5.0, shuffled[:split])
    return schedule


#: Named recipes: name -> builder(hosts, rng, start) -> FaultSchedule.
SCHEDULES: dict[str, Callable[[list[str], random.Random, float], FaultSchedule]] = {
    "daemon-bounce": _daemon_bounce,
    "lossy": _lossy,
    "partition": _partition,
    "latency": _latency,
    "chaos-mix": _chaos_mix,
}


def build_schedule(
    name: str, hosts: list[str], seed: int = 0, start: float = 0.0
) -> FaultSchedule:
    """Instantiate the named recipe against *hosts*, deterministically.

    The same (name, hosts, seed, start) always yields the identical
    schedule — the recipe's randomness comes from a private
    ``random.Random(seed)``, never the simulator streams.
    """
    try:
        recipe = SCHEDULES[name]
    except KeyError:
        known = ", ".join(sorted(SCHEDULES))
        raise SimulationError(f"unknown fault schedule {name!r} (known: {known})")
    if not hosts:
        raise SimulationError("a fault schedule needs at least one target host")
    return recipe(sorted(hosts), random.Random(seed), start)
