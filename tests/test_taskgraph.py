"""Tests for task nodes, arcs, and the task graph analyses."""

import pytest
from hypothesis import given, strategies as st

from repro.taskgraph import (
    Arc,
    ArcKind,
    ExecutionHints,
    ProblemClass,
    TaskGraph,
    TaskNature,
    TaskNode,
)
from repro.util.errors import TaskGraphError


class TestTaskNode:
    def test_defaults(self):
        t = TaskNode("t")
        assert t.work == 1.0 and t.instances == 1
        assert not t.designed and not t.coded
        assert not t.local

    def test_validation(self):
        with pytest.raises(TaskGraphError):
            TaskNode("")
        with pytest.raises(TaskGraphError):
            TaskNode("t", work=-1)
        with pytest.raises(TaskGraphError):
            TaskNode("t", instances=0)
        with pytest.raises(TaskGraphError):
            TaskNode("t", hints=ExecutionHints(redundancy=0))

    def test_designed_and_coded_flags(self):
        t = TaskNode("t", problem_class=ProblemClass.SYNCHRONOUS)
        assert t.designed and not t.coded
        t.language = "hpf"
        t.program = lambda ctx: iter(())
        assert t.coded

    def test_hardware_requirements_merges_memory_and_files(self):
        t = TaskNode("t", memory_mb=128, input_files=["a.dat"], requirements={"os": "unix"})
        reqs = t.hardware_requirements()
        assert reqs == {"os": "unix", "min_memory_mb": 128, "files": ["a.dat"]}

    def test_hardware_requirements_explicit_not_overridden(self):
        t = TaskNode("t", memory_mb=128, requirements={"min_memory_mb": 512})
        assert t.hardware_requirements()["min_memory_mb"] == 512

    def test_problem_class_parse(self):
        assert ProblemClass.parse("sync") is ProblemClass.SYNCHRONOUS
        assert ProblemClass.parse("loosely-synchronous") is ProblemClass.LOOSELY_SYNCHRONOUS
        assert ProblemClass.parse("ASYNC") is ProblemClass.ASYNCHRONOUS
        with pytest.raises(ValueError):
            ProblemClass.parse("chaotic")

    def test_nature_flags_combine(self):
        n = TaskNature.GRAPHIC | TaskNature.INTERACTIVE
        assert TaskNature.GRAPHIC in n and TaskNature.IO_INTENSIVE not in n


class TestArc:
    def test_self_arc_rejected(self):
        with pytest.raises(TaskGraphError):
            Arc("a", "a")

    def test_negative_volume_rejected(self):
        with pytest.raises(TaskGraphError):
            Arc("a", "b", volume=-1)

    def test_precedence_kinds(self):
        assert ArcKind.DEPENDENCY.is_precedence
        assert ArcKind.DATA.is_precedence
        assert not ArcKind.STREAM.is_precedence


def diamond() -> TaskGraph:
    g = TaskGraph("diamond")
    for name, work in [("a", 1), ("b", 2), ("c", 5), ("d", 1)]:
        g.add_task(TaskNode(name, work=work))
    g.connect("a", "b")
    g.connect("a", "c")
    g.connect("b", "d")
    g.connect("c", "d")
    return g


class TestTaskGraph:
    def test_duplicate_task_rejected(self):
        g = TaskGraph()
        g.add_task(TaskNode("x"))
        with pytest.raises(TaskGraphError):
            g.add_task(TaskNode("x"))

    def test_arc_to_unknown_task_rejected(self):
        g = TaskGraph()
        g.add_task(TaskNode("x"))
        with pytest.raises(TaskGraphError):
            g.connect("x", "ghost")

    def test_cycle_detection(self):
        g = TaskGraph()
        for n in "abc":
            g.add_task(TaskNode(n))
        g.connect("a", "b")
        g.connect("b", "c")
        g.connect("c", "a")
        with pytest.raises(TaskGraphError, match="cycle"):
            g.validate()

    def test_cycle_is_named(self):
        """The message walks the cycle, not the acyclic tasks around it."""
        g = TaskGraph()
        for n in "xabcy":
            g.add_task(TaskNode(n))
        g.connect("a", "b")
        g.connect("b", "a", ArcKind.DATA)
        with pytest.raises(TaskGraphError) as two:
            g.validate()
        assert str(two.value) == "precedence cycle: a -> b -> a"
        g = TaskGraph()
        for n in "xabcy":
            g.add_task(TaskNode(n))
        for src, dst in ["xa", "ab", "bc", "ca", "cy"]:
            g.connect(src, dst)
        with pytest.raises(TaskGraphError) as three:
            g.topological_order()
        assert str(three.value) == "precedence cycle: a -> b -> c -> a"

    def test_stream_cycles_allowed(self):
        g = TaskGraph()
        g.add_task(TaskNode("client"))
        g.add_task(TaskNode("server"))
        g.connect("client", "server", ArcKind.STREAM)
        g.connect("server", "client", ArcKind.STREAM)
        g.validate()  # no raise

    def test_stream_cycle_through_a_precedence_chain_allowed(self):
        g = TaskGraph()
        for n in "abc":
            g.add_task(TaskNode(n))
        g.connect("a", "b")
        g.connect("b", "c", ArcKind.DATA)
        g.connect("c", "a", ArcKind.STREAM)
        g.validate()
        assert g.topological_order() == ["a", "b", "c"]

    def test_topological_order(self):
        order = diamond().topological_order()
        assert order.index("a") < order.index("b") < order.index("d")
        assert order.index("a") < order.index("c") < order.index("d")

    def test_levels(self):
        assert diamond().levels() == [["a"], ["b", "c"], ["d"]]

    def test_roots_and_sinks(self):
        g = diamond()
        assert g.roots() == ["a"]
        assert g.sinks() == ["d"]

    def test_critical_path(self):
        path, length = diamond().critical_path()
        assert path == ["a", "c", "d"]
        assert length == 7

    def test_critical_path_empty_graph(self):
        assert TaskGraph().critical_path() == ([], 0.0)

    def test_total_work_counts_instances(self):
        g = TaskGraph()
        g.add_task(TaskNode("t", work=10, instances=3))
        assert g.total_work() == 30

    def test_predecessors_ignore_stream(self):
        g = TaskGraph()
        for n in "ab":
            g.add_task(TaskNode(n))
        g.connect("a", "b", ArcKind.STREAM)
        assert g.predecessors("b") == []
        assert g.stream_peers("b") == ["a"]
        assert g.stream_peers("a") == ["b"]

    def test_subset(self):
        sub = diamond().subset(["a", "b"])
        assert len(sub) == 2
        assert len(sub.arcs) == 1

    def test_to_networkx(self):
        nxg = diamond().to_networkx()
        assert nxg.number_of_nodes() == 4
        assert nxg.number_of_edges() == 4
        assert nxg.nodes["c"]["work"] == 5

    def test_to_dot_contains_nodes_and_edges(self):
        dot = diamond().to_dot()
        assert '"a"' in dot and '"a" -> "b"' in dot and dot.startswith("digraph")

    def test_arcs_from_into(self):
        g = diamond()
        assert {a.dst for a in g.arcs_from("a")} == {"b", "c"}
        assert {a.src for a in g.arcs_into("d")} == {"b", "c"}

    @given(st.integers(2, 15), st.integers(0))
    def test_random_layered_dag_levels_consistent(self, width, seed):
        import random

        rng = random.Random(seed)
        g = TaskGraph()
        layers = [[f"t{i}_{j}" for j in range(rng.randint(1, width))] for i in range(3)]
        for layer in layers:
            for name in layer:
                g.add_task(TaskNode(name))
        for i in range(2):
            for dst in layers[i + 1]:
                src = rng.choice(layers[i])
                g.connect(src, dst)
        levels = g.levels()
        # every task appears exactly once across levels
        flat = [n for level in levels for n in level]
        assert sorted(flat) == sorted(t.name for t in g)
        # precedence respected
        order = {n: i for i, level in enumerate(levels) for n in level}
        for arc in g.arcs:
            assert order[arc.src] < order[arc.dst]


# ------------------------------------------------- the precedence index


@st.composite
def arc_lists(draw):
    """Tasks t0..tn and arcs of every kind: precedence arcs run from a lower
    to a higher index (acyclic) and may repeat; STREAM arcs run anywhere."""
    n = draw(st.integers(2, 8))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] != p[1]
    )
    arcs = []
    for (i, j), kind in draw(st.lists(st.tuples(pairs, st.sampled_from(ArcKind)), max_size=20)):
        if kind is not ArcKind.STREAM:
            i, j = min(i, j), max(i, j)
        arcs.append(Arc(f"t{i}", f"t{j}", kind))
    return n, arcs


def _built(n, arcs, how):
    g = TaskGraph()
    for i in range(n):
        g.add_task(TaskNode(f"t{i}", work=1.0 + i))
    for arc in arcs:
        if how == "add_arc":
            g.add_arc(arc)
        else:
            g.connect(arc.src, arc.dst, arc.kind)
    return g


@given(arc_lists(), st.sampled_from(["add_arc", "connect", "subset"]), st.data())
def test_neighbourhood_queries_agree_with_the_arc_list(case, how, data):
    """predecessors/successors/roots/sinks/levels/critical_path answer from
    an index kept by add_arc; the arc list is the truth they must match."""
    n, arcs = case
    g = _built(n, arcs, how)
    if how == "subset":
        keep = data.draw(st.lists(st.sampled_from([t.name for t in g]), unique=True))
        g = g.subset(keep)
    precedence = [a for a in g.arcs if a.kind is not ArcKind.STREAM]
    names = [t.name for t in g]
    for name in names:
        assert g.predecessors(name) == [a.src for a in precedence if a.dst == name]
        assert g.successors(name) == [a.dst for a in precedence if a.src == name]
    assert g.roots() == [x for x in names if all(a.dst != x for a in precedence)]
    assert g.sinks() == [x for x in names if all(a.src != x for a in precedence)]
    g.validate()
    depth = {}
    for name in sorted(names, key=lambda x: int(x[1:])):  # index order is topological
        depth[name] = 1 + max((depth[a.src] for a in precedence if a.dst == name), default=-1)
    levels = g.levels()
    assert {x: i for i, level in enumerate(levels) for x in level} == depth
    longest = {}
    for name in sorted(names, key=lambda x: int(x[1:])):
        longest[name] = g.task(name).work + max(
            (longest[a.src] for a in precedence if a.dst == name), default=0.0
        )
    path, length = g.critical_path()
    assert length == max(longest.values(), default=0.0)
    assert all((a, b) in {(x.src, x.dst) for x in precedence} for a, b in zip(path, path[1:]))
