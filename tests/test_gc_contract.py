"""The collector contract of the event loop.

``Simulator.run`` freezes the heap it inherits for the length of the run
(``gc.freeze()`` on entry, ``gc.unfreeze()`` on exit), so a collection
during a run walks only what the run allocated. That is sound only while a
run makes no cyclic garbage: a cycle one ``run`` call leaves behind sits
frozen through the next. These tests pin both halves:

- every cost ledger scenario, run with the collector off, leaves nothing
  for ``gc.collect()`` to find;
- the freeze is scoped to one ``run`` call — dropped however the call ends
  (drained heap, ``until``, ``stop_when``, a raising callback) — and a
  caller's own freeze is left exactly as it was.
"""

from __future__ import annotations

import gc

import pytest

# imported here, not first inside a scenario: each ``@dataclass(slots=True)``
# there builds a second class and leaves the first as cyclic garbage, once
# per interpreter, which a scenario importing the sanitizer would be charged
import repro.analysis.hb  # noqa: F401
from repro.netsim.kernel import Simulator

from tests.test_cost_ledger import SCENARIOS


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_scenario_makes_no_cyclic_garbage(name):
    was_enabled = gc.isenabled()
    gc.collect()  # what earlier tests (and their reports) left is not this run's
    gc.disable()
    try:
        vce, _units, _extra = SCENARIOS[name]()  # kept alive: only garbage counts
        found = gc.collect()
    finally:
        if was_enabled:
            gc.enable()
    assert vce.sim.events_processed > 0
    assert found == 0, (
        f"{name} left {found} objects in reference cycles; a run must free "
        f"what it allocates by reference count (see netsim/kernel.py)"
    )


# ------------------------------------------------------------ the freeze


def _sim_with_events(n: int = 5) -> Simulator:
    sim = Simulator(seed=0)
    for i in range(n):
        sim.schedule(float(i + 1), lambda: None)
    return sim


@pytest.mark.parametrize(
    "how",
    [
        lambda sim: sim.run(),
        lambda sim: sim.run(until=2.5),
        lambda sim: sim.run(stop_when=lambda: sim.now >= 3.0),
    ],
    ids=["drained", "until", "stop_when"],
)
def test_nothing_stays_frozen_after_run(how):
    assert gc.get_freeze_count() == 0
    sim = _sim_with_events()
    how(sim)
    assert sim.events_processed > 0
    assert gc.get_freeze_count() == 0


def test_nothing_stays_frozen_after_a_raising_callback():
    sim = _sim_with_events()

    def boom() -> None:
        raise RuntimeError("boom")

    sim.schedule(1.5, boom)
    with pytest.raises(RuntimeError, match="boom"):
        sim.run()
    assert gc.get_freeze_count() == 0


def _tracked(obj) -> bool:
    """Is *obj* in one of the collector's generations (i.e. not frozen)?"""
    return any(o is obj for o in gc.get_objects())


def test_the_inherited_heap_is_frozen_during_run():
    sim = Simulator(seed=0)
    before = [object()]  # a tracked object alive before the run
    seen: dict[str, object] = {}

    def probe() -> None:
        during = [object()]
        seen["freeze_count"] = gc.get_freeze_count()
        seen["before_tracked"] = _tracked(before)
        seen["during_tracked"] = _tracked(during)

    sim.schedule(1.0, probe)
    sim.run()
    assert seen["freeze_count"] > 0
    assert seen["before_tracked"] is False, "a pre-run object was collectable"
    assert seen["during_tracked"] is True, "an object the run made was frozen"
    assert _tracked(before), "the run did not unfreeze what it froze"


def test_a_callers_freeze_is_left_alone():
    sim = Simulator(seed=0)
    before = [object()]
    kept: list[list] = []
    gc.freeze()
    try:
        own = gc.get_freeze_count()
        for i in range(5):
            sim.schedule(float(i + 1), lambda: kept.append([object()]))
        sim.run()
        assert gc.get_freeze_count() == own
        assert not _tracked(before), "the run unfroze the caller's objects"
        assert all(_tracked(made) for made in kept), "the run froze its own objects"
    finally:
        gc.unfreeze()


# ------------------------------------------------------- the cycle census


def test_cycle_census_names_the_reference_each_cycle_runs_through():
    from tests.helpers_gc import cycle_census

    class Node:
        def __init__(self):
            self.peer = None

    class Slotted:
        __slots__ = ("back",)

    def build():
        a, b, s = Node(), Node(), Slotted()
        a.peer, b.peer = b, a  # one two-object cycle
        s.back = s  # one self-reference
        leaf = Node()  # freed with the cycle, on none
        a.leaf = leaf
        return a

    found, census = cycle_census(build)
    assert found >= 4  # the three on cycles and the leaf they hold
    pair, alone = census
    assert pair.types["Node"] == 2 and pair.size >= 2
    assert sum(n for label, n in pair.edges.items() if label.endswith("-> Node")) == 2
    assert alone.size == 1 and alone.edges == {"Slotted.back -> Slotted": 1}


def test_a_dropped_environment_is_held_by_named_cycles():
    """What a dropped VCE leaves for the collector is the three cyclic
    components docs/PERFORMANCE.md ("What holds a dropped environment")
    names, held by the back-references it names: a new cycle, or a cut
    one, shows up here and in that section together."""
    from tests.helpers_gc import cycle_census

    found, census = cycle_census(lambda: SCENARIOS["faults_e9_calm"]()[0])
    # 69: a daemon sets every attribute in its constructor (none in
    # on_start), so CPython keeps them inline and materialises no
    # per-daemon __dict__ on the cycle
    assert [component.size for component in census] == [69, 3, 2]
    assert found >= 1_500  # the rest hangs off the cycles
    environment, restart_hooks, redundancy = census
    # the backbone: each of the nine hosts points back at the simulator and
    # the network, and bound methods in observer lists close the rest
    assert environment.edges["Host.sim -> Simulator"] == 9
    assert environment.edges["Host.network -> Network"] == 9
    # failover's runtime failure handler and its one host-lost subscription
    # (it takes no dispatch hook: nothing is polled per dispatch)
    assert environment.edges["method.__self__ -> FailoverManager"] == 2
    assert environment.edges["GroupDirectory.host_lost_hooks -> list"] == 1
    assert environment.edges["Simulator._grid_observer -> method"] == 1
    # the one fault injector holds the one restart_daemon hook
    assert restart_hooks.edges == {
        "VirtualComputingEnvironment.chaos_controller -> ChaosController": 1,
        "ChaosController.restart_daemon -> method": 1,
        "method.__self__ -> VirtualComputingEnvironment": 1,
    }
    assert redundancy.edges == {
        "method.__self__ -> RedundantExecutionManager": 1,
        "RedundantExecutionManager._on_copy_exit -> method": 1,
    }
