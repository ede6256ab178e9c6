"""The §5 weather-forecasting application.

"The script shown above corresponds to a weather forecasting application.
The first line of the script requests two instantiations of a data
collector program on machines with asynchronous architectures. The third
line requests remote execution of a predictor program on a synchronous
computer. The LOCAL directive identifies a program to run on the local
workstation after the remote executions have begun."

Structure built here::

    collector x2 (ASYNC) ──┐
                           ├─ data ──> predictor (SYNC) ── data ──> display (LOCAL)
    usercollect (WORKSTATION) ─┘

The collectors and usercollect gather observations (compute + output
files); the predictor runs the model; the display renders the forecast on
the user's workstation.
"""

from __future__ import annotations

from repro.sdm import ProblemSpecification
from repro.taskgraph import ExecutionHints, ProblemClass, TaskGraph
from repro.vmpi.api import Checkpoint, Compute, Emit, WriteFile

#: The exact script from the paper.
WEATHER_SCRIPT = '''\
ASYNC 2 "/apps/snow/collector.vce"
WORKSTATION 1 "/apps/snow/usercollect.vce"
SYNC 1 "/apps/snow/predictor.vce"
LOCAL "/apps/snow/display.vce"
'''


def weather_programs(
    collect_work: float = 20.0,
    predict_work: float = 400.0,
    display_work: float = 2.0,
    checkpoint_steps: int = 8,
):
    """Program bodies for the four weather modules."""

    def collector(ctx):
        yield Compute(collect_work)
        yield WriteFile(f"obs-{ctx.rank}.dat", size=2_000_000)
        yield Emit("weather.collected", {"rank": ctx.rank})
        return f"observations[{ctx.rank}]"

    def usercollect(ctx):
        yield Compute(collect_work / 2)
        yield WriteFile("user-obs.dat", size=500_000)
        return "user-observations"

    def predictor(ctx):
        step = ctx.restored_state or 0
        per_step = predict_work / checkpoint_steps
        while step < checkpoint_steps:
            yield Compute(per_step)
            step += 1
            yield Checkpoint(step, size=100_000)
        yield WriteFile("forecast.dat", size=1_000_000)
        return "48h forecast: snow"

    def display(ctx):
        yield Compute(display_work)
        yield Emit("weather.displayed", {})
        return "displayed"

    return {
        "collector": collector,
        "usercollect": usercollect,
        "predictor": predictor,
        "display": display,
    }


def build_weather_graph(
    collect_work: float = 20.0,
    predict_work: float = 400.0,
    display_work: float = 2.0,
) -> TaskGraph:
    """The annotated weather task graph (programs attached, classes set)."""
    spec = (
        ProblemSpecification("weather")
        .task("collector", "gather observations", work=collect_work, instances=2,
              hints=ExecutionHints(runtime_weight=1.0))
        .task("usercollect", "gather user observations", work=collect_work / 2)
        .task(
            "predictor",
            "run the forecast model",
            work=predict_work,
            memory_mb=64,
            hints=ExecutionHints(runtime_weight=10.0),
        )
        .task("display", "render the forecast", work=display_work, local=True)
        .flow("collector", "predictor", volume=4_000_000)
        .flow("usercollect", "predictor", volume=500_000)
        .flow("predictor", "display", volume=1_000_000)
    )
    graph = spec.build()
    programs = weather_programs(collect_work, predict_work, display_work)
    classes = {
        "collector": ProblemClass.ASYNCHRONOUS,
        "usercollect": ProblemClass.ASYNCHRONOUS,
        "predictor": ProblemClass.SYNCHRONOUS,
        "display": ProblemClass.ASYNCHRONOUS,
    }
    for node in graph:
        node.problem_class = classes[node.name]
        node.language = "py"
        node.program = programs[node.name]
    return graph


def weather_class_map():
    """task → machine class, exactly as the script's directives request."""
    from repro.machines.archclass import MachineClass

    return {
        "collector": MachineClass.WORKSTATION,  # ASYNC -> workstation group
        "usercollect": MachineClass.WORKSTATION,
        "predictor": MachineClass.SIMD,  # SYNC -> SIMD group
        "display": None,  # LOCAL
    }
