"""The task graph container and its structural analyses."""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

from repro.taskgraph.arc import Arc, ArcKind
from repro.taskgraph.node import TaskNode
from repro.util.errors import TaskGraphError

if TYPE_CHECKING:  # pragma: no cover
    import networkx as nx

_NO_STREAMS: tuple[Sequence[Arc], Sequence[Arc]] = ((), ())


class TaskGraph:
    """A named collection of :class:`TaskNode` connected by :class:`Arc`.

    Precedence arcs (DEPENDENCY, DATA) must form a DAG — checked by
    :meth:`validate`. STREAM arcs describe concurrent message exchange and
    may form cycles.
    """

    def __init__(self, name: str = "app") -> None:
        self.name = name
        self._nodes: dict[str, TaskNode] = {}
        self._arcs: list[Arc] = []
        # adjacency indexes (arc insertion order preserved): neighbourhood
        # queries are on the dispatch hot path and must not scan every arc
        self._arcs_out: dict[str, list[Arc]] = {}
        self._arcs_in: dict[str, list[Arc]] = {}
        # the precedence arcs alone, as task names (arc order and parallel
        # arcs kept): what predecessors()/successors() answer from
        self._pred: dict[str, list[str]] = {}
        self._succ: dict[str, list[str]] = {}
        # the STREAM arcs alone, (outgoing, incoming) per task that has any
        self._streams: dict[str, tuple[list[Arc], list[Arc]]] = {}

    # -- construction ---------------------------------------------------------

    def add_task(self, node: TaskNode) -> TaskNode:
        if node.name in self._nodes:
            raise TaskGraphError(f"duplicate task {node.name!r}")
        self._nodes[node.name] = node
        return node

    def add_arc(self, arc: Arc) -> Arc:
        src, dst = arc.src, arc.dst
        for end in (src, dst):
            if end not in self._nodes:
                raise TaskGraphError(f"arc references unknown task {end!r}")
        self._arcs.append(arc)
        # the per-arc index appends are spelled out (setdefault would build a
        # throwaway list per call): a wide graph adds tens of thousands of
        # precedence arcs; STREAM arcs are few
        arcs = self._arcs_out.get(src)
        if arcs is None:
            self._arcs_out[src] = [arc]
        else:
            arcs.append(arc)
        arcs = self._arcs_in.get(dst)
        if arcs is None:
            self._arcs_in[dst] = [arc]
        else:
            arcs.append(arc)
        if arc.kind.is_precedence:
            names = self._succ.get(src)
            if names is None:
                self._succ[src] = [dst]
            else:
                names.append(dst)
            names = self._pred.get(dst)
            if names is None:
                self._pred[dst] = [src]
            else:
                names.append(src)
        else:
            self._streams.setdefault(src, ([], []))[0].append(arc)
            self._streams.setdefault(dst, ([], []))[1].append(arc)
        return arc

    def connect(
        self,
        src: str,
        dst: str,
        kind: ArcKind = ArcKind.DEPENDENCY,
        volume: int = 0,
        channel: str | None = None,
    ) -> Arc:
        """Convenience: build and add an arc."""
        return self.add_arc(Arc(src, dst, kind, volume, channel))

    # -- access -----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def __iter__(self) -> Iterator[TaskNode]:
        return iter(self._nodes.values())

    def task(self, name: str) -> TaskNode:
        try:
            return self._nodes[name]
        except KeyError:
            raise TaskGraphError(f"unknown task {name!r}") from None

    @property
    def tasks(self) -> list[TaskNode]:
        return list(self._nodes.values())

    @property
    def arcs(self) -> list[Arc]:
        return list(self._arcs)

    def arcs_from(self, name: str) -> list[Arc]:
        return list(self._arcs_out.get(name, ()))

    def arcs_into(self, name: str) -> list[Arc]:
        return list(self._arcs_in.get(name, ()))

    def predecessors(self, name: str) -> list[str]:
        """Tasks that must complete before *name* may start (one entry per
        precedence arc, so parallel arcs repeat a name)."""
        return list(self._pred.get(name, ()))

    def successors(self, name: str) -> list[str]:
        return list(self._succ.get(name, ()))

    def stream_peers(self, name: str) -> list[str]:
        """Tasks this one exchanges messages with at runtime."""
        outgoing, incoming = self.stream_arcs(name)
        return [a.dst for a in outgoing] + [a.src for a in incoming]

    # The views below hand out the graph's own adjacency, not a copy: they
    # are what a completion and the dispatches it releases read, once per
    # task instance. Do not mutate.

    def predecessor_view(self, name: str) -> Sequence[str]:
        """:meth:`predecessors`, uncopied."""
        return self._pred.get(name, ())

    def successor_view(self, name: str) -> Sequence[str]:
        """:meth:`successors`, uncopied."""
        return self._succ.get(name, ())

    def arcs_into_view(self, name: str) -> Sequence[Arc]:
        """:meth:`arcs_into`, uncopied."""
        return self._arcs_in.get(name, ())

    def stream_arcs(self, name: str) -> tuple[Sequence[Arc], Sequence[Arc]]:
        """The STREAM arcs (out of, into) *name*, in arc order, uncopied."""
        return self._streams.get(name, _NO_STREAMS)

    # -- analyses ---------------------------------------------------------------

    def validate(self) -> None:
        """Raise :class:`TaskGraphError` on structural problems.

        Kahn's algorithm over the precedence index, O(tasks + arcs); a
        cycle, once found, is named by :func:`find_cycle`.
        """
        blocked = {name: len(self._pred.get(name, ())) for name in self._nodes}
        free = [name for name, count in blocked.items() if count == 0]
        ordered = 0
        while free:
            ordered += 1
            for dst in self._succ.get(free.pop(), ()):
                blocked[dst] -= 1
                if blocked[dst] == 0:
                    free.append(dst)
        if ordered < len(self._nodes):
            cycle = find_cycle(self._nodes, self._succ)
            raise TaskGraphError(f"precedence cycle: {' -> '.join(cycle + cycle[:1])}")

    def topological_order(self) -> list[str]:
        """Deterministic topological order: of the tasks whose predecessors
        are all placed, the lexicographically smallest comes next."""
        self.validate()
        blocked = {name: len(preds) for name, preds in self._pred.items()}
        ready = [name for name in self._nodes if name not in blocked]
        heapq.heapify(ready)
        order: list[str] = []
        while ready:
            name = heapq.heappop(ready)
            order.append(name)
            for dst in self._succ.get(name, ()):
                blocked[dst] -= 1
                if blocked[dst] == 0:
                    heapq.heappush(ready, dst)
        return order

    def levels(self) -> list[list[str]]:
        """Antichains of tasks with equal precedence depth — everything in a
        level may run concurrently once the previous level completes."""
        order = self.topological_order()
        depth: dict[str, int] = {}
        for name in order:
            preds = self.predecessors(name)
            depth[name] = 1 + max((depth[p] for p in preds), default=-1)
        out: list[list[str]] = []
        for name in order:
            while len(out) <= depth[name]:
                out.append([])
            out[depth[name]].append(name)
        return out

    def roots(self) -> list[str]:
        """Tasks with no precedence predecessors (dispatchable immediately)."""
        return [n for n in self._nodes if n not in self._pred]

    def sinks(self) -> list[str]:
        return [n for n in self._nodes if n not in self._succ]

    def critical_path(self) -> tuple[list[str], float]:
        """Longest work-weighted precedence path: the lower bound on makespan
        at speed 1. Returns (task names, total work)."""
        self.validate()
        order = self.topological_order()
        best: dict[str, float] = {}
        prev: dict[str, str | None] = {}
        for name in order:
            preds = self.predecessors(name)
            if preds:
                pick = max(preds, key=lambda p: best[p])
                best[name] = best[pick] + self._nodes[name].work
                prev[name] = pick
            else:
                best[name] = self._nodes[name].work
                prev[name] = None
        if not best:
            return [], 0.0
        end = max(best, key=lambda n: best[n])
        path: list[str] = []
        cursor: str | None = end
        while cursor is not None:
            path.append(cursor)
            cursor = prev[cursor]
        return path[::-1], best[end]

    def total_work(self) -> float:
        return sum(t.work * t.instances for t in self._nodes.values())

    # -- export ----------------------------------------------------------------

    def to_networkx(self) -> nx.DiGraph:
        """Full graph (all arc kinds) with node/arc attributes (needs networkx,
        which is not a dependency of this package)."""
        import networkx as nx

        g = nx.DiGraph(name=self.name)
        for node in self._nodes.values():
            g.add_node(
                node.name,
                work=node.work,
                instances=node.instances,
                problem_class=node.problem_class.value if node.problem_class else None,
            )
        for arc in self._arcs:
            g.add_edge(arc.src, arc.dst, kind=arc.kind.value, volume=arc.volume)
        return g

    def to_dot(self) -> str:
        """GraphViz rendering of the task graph — the VCE's "visual
        representation" of an application."""
        lines = [f'digraph "{self.name}" {{']
        for node in self._nodes.values():
            cls = node.problem_class.value if node.problem_class else "?"
            label = f"{node.name}\\n[{cls}] x{node.instances}"
            shape = "box" if node.local else "ellipse"
            lines.append(f'  "{node.name}" [label="{label}", shape={shape}];')
        for arc in self._arcs:
            style = "dashed" if arc.kind is ArcKind.STREAM else "solid"
            lines.append(f'  "{arc.src}" -> "{arc.dst}" [style={style}];')
        lines.append("}")
        return "\n".join(lines)

    # -- helpers ------------------------------------------------------------------

    def subset(self, names: Iterable[str]) -> "TaskGraph":
        """Induced subgraph on *names* (used by per-group dispatch)."""
        # dict, not set: node insertion order must follow the caller's order,
        # not hash order, or downstream dispatch order becomes seed-dependent
        keep = dict.fromkeys(names)
        out = TaskGraph(f"{self.name}.subset")
        for name in keep:
            out.add_task(self.task(name))
        for arc in self._arcs:
            if arc.src in keep and arc.dst in keep:
                out.add_arc(arc)
        return out


def find_cycle(nodes: Iterable[str], succ: Mapping[str, Iterable[str]]) -> list[str]:
    """One cycle of the digraph *succ*, as the list of its nodes, or ``[]``.

    Depth-first from each of *nodes* in turn, following successors in
    order; the first arc back onto the current path closes the cycle, which
    starts at that arc's head.  This is the cycle ``networkx.find_cycle``
    names on a digraph built with the same node and arc order.
    """
    visited: set[str] = set()
    for start in nodes:
        if start in visited:
            continue
        visited.add(start)
        path = [start]
        on_path = {start}
        frames = [iter(succ.get(start, ()))]
        while frames:
            for head in frames[-1]:
                if head in on_path:
                    return path[path.index(head):]
                if head not in visited:
                    visited.add(head)
                    path.append(head)
                    on_path.add(head)
                    frames.append(iter(succ.get(head, ())))
                    break
            else:
                frames.pop()
                on_path.discard(path.pop())
    return []
