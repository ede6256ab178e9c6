"""The task graph's own cycle, order and component algorithms agree with
networkx (a test-only dependency) on random digraphs.

``TaskGraph.validate``/``topological_order`` and ``graphcheck.pass_cycles``
run over the adjacency the graph already keeps; networkx is only the oracle
here. The reference is what each function computed when it called networkx,
with one change: ``pass_cycles`` used to search a component through
``DiGraph.subgraph``, which visits a component smaller than half the graph in
set (hash) order, so the cycle it named could vary with ``PYTHONHASHSEED``.
The reference starts from the component's nodes in graph order, as the
replacement does.
"""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.graphcheck import pass_cycles
from repro.taskgraph import ArcKind, TaskGraph, TaskNode
from repro.taskgraph.graph import find_cycle
from repro.util.errors import TaskGraphError


@st.composite
def digraphs(draw, acyclic: bool):
    """A task graph over shuffled names; arcs of every kind, parallel arcs
    allowed, and precedence arcs only forward in a hidden order if *acyclic*."""
    names = draw(
        st.lists(st.text("abcdefgh", min_size=1, max_size=3), min_size=1, max_size=12,
                 unique=True)
    )
    graph = TaskGraph("g")
    for name in names:
        graph.add_task(TaskNode(name, work=1.0))
    rank = {name: i for i, name in enumerate(draw(st.permutations(names)))}
    pairs = st.tuples(st.sampled_from(names), st.sampled_from(names))
    kinds = st.sampled_from([ArcKind.DEPENDENCY, ArcKind.DATA, ArcKind.STREAM])
    for (src, dst), kind in draw(st.lists(st.tuples(pairs, kinds), max_size=30)):
        if src == dst:
            continue
        if acyclic and kind.is_precedence and rank[src] > rank[dst]:
            src, dst = dst, src
        graph.connect(src, dst, kind)
    return graph


def _precedence_digraph(graph: TaskGraph) -> nx.DiGraph:
    g = nx.DiGraph()
    g.add_nodes_from(task.name for task in graph)
    g.add_edges_from((a.src, a.dst) for a in graph.arcs if a.kind.is_precedence)
    return g


def _named(cycle) -> str:
    return " -> ".join(edge[0] for edge in cycle) + f" -> {cycle[0][0]}"


def _reference_pass_cycles(graph: TaskGraph) -> list[tuple[str, str]]:
    g = _precedence_digraph(graph)
    out = []
    for component in nx.strongly_connected_components(g):
        if len(component) < 2:
            continue
        start = [name for name in g if name in component]
        cycle = nx.find_cycle(g.subgraph(component), source=start)
        out.append((f"task {min(component)}", f"precedence cycle: {_named(cycle)}"))
    return sorted(out)


graphs = st.booleans().flatmap(lambda acyclic: digraphs(acyclic))


@settings(max_examples=300, deadline=None)
@given(graphs)
def test_validate_and_topological_order_match_networkx(graph):
    g = _precedence_digraph(graph)
    if nx.is_directed_acyclic_graph(g):
        graph.validate()
        assert graph.topological_order() == list(nx.lexicographical_topological_sort(g))
    else:
        with pytest.raises(TaskGraphError) as raised:
            graph.validate()
        assert str(raised.value) == f"precedence cycle: {_named(nx.find_cycle(g))}"


@settings(max_examples=300, deadline=None)
@given(graphs)
def test_pass_cycles_matches_networkx(graph):
    found = [(f.locus, f.message) for f in pass_cycles(graph)]
    assert found == _reference_pass_cycles(graph)


def test_find_cycle_returns_empty_on_a_dag():
    assert find_cycle("abc", {"a": ["b", "c"], "b": ["c"]}) == []
