"""The static task-graph verifier: a pass pipeline over :class:`TaskGraph`.

Nothing here executes the application — every check is a structural or
annotation analysis of the graph the SDM layers produced, run *before*
dispatch so a mis-wired graph is rejected at submit time instead of
failing deep inside the scheduler. The rule catalog (stable ids, see
``docs/ANALYSIS.md``):

Structure
    - G001 cycle: precedence arcs (DEPENDENCY/DATA) form a cycle.
    - G002 self-arc: an arc whose src and dst are the same task.
    - G003 dangling-arc: an arc endpoint names no task in the graph.
    - G004 orphan-task: a task no arc touches, in a multi-task graph.

Channels and protocol
    - G005 channel-on-precedence-arc: a DEPENDENCY/DATA arc declares a
      channel (channels are STREAM transport; precedence arcs never
      carry one).
    - G006 undeclared-channel: a task program sends or receives on a
      named channel that no arc of that task declares.

vMPI
    - G007 rank-out-of-range: a program Send/Recv addresses a constant
      rank outside the task's communicator (``rank >= instances``).
    - G008 unmatched-send: a constant-tag communicator send that no
      program in the graph ever receives (collective internal tags are
      matched pairwise by the library and exempt).

SDM annotations
    - G010 undesigned: the design stage never classified the task.
    - G011 uncoded: the coding level never attached language/program.
    - G012 lone-synchronous: a SYNCHRONOUS task with one instance and no
      stream peers — synchronous semantics need a peer group.
    - G013 contradictory-annotation: a ``lockstep`` design hint on a
      task classified ASYNCHRONOUS.

Feasibility (G020/G021/G022) lives in :mod:`repro.analysis.feasibility`
and only runs when a compilation manager is supplied.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from repro.analysis.report import AnalysisReport, Finding, Severity
from repro.taskgraph import ArcKind, ProblemClass, TaskGraph
from repro.taskgraph.graph import find_cycle

#: A verifier pass: graph -> findings.
GraphPass = Callable[[TaskGraph], list[Finding]]

#: vMPI collective helpers whose internal tags pair up inside the library.
COLLECTIVE_NAMES = frozenset(
    {"bcast", "reduce", "allreduce", "barrier", "scatter", "gather",
     "allgather", "sendrecv", "alltoall"}
)
#: Tags those helpers use on the wire; always matched, never reported.
_LIBRARY_TAGS = frozenset(
    {"__bcast__", "__reduce__", "__scatter__", "__gather__",
     "__alltoall__", "__sendrecv__"}
)


# ------------------------------------------------------------------ structure


def pass_cycles(graph: TaskGraph) -> list[Finding]:
    """G001: precedence cycles (the runtime's topological dispatch would
    deadlock — no root to start from inside the cycle)."""
    nodes = [t.name for t in graph]
    succ: dict[str, list[str]] = {name: [] for name in nodes}
    for arc in graph.arcs:
        if arc.kind.is_precedence and arc.src != arc.dst:
            if arc.src in succ and arc.dst in succ:
                succ[arc.src].append(arc.dst)
    out: list[Finding] = []
    # Report one representative cycle per strongly connected component so a
    # single mis-wired loop yields one finding, not factorially many.
    for component in _cyclic_components(nodes, succ):
        members = [name for name in nodes if name in component]
        inside = {name: [s for s in succ[name] if s in component] for name in members}
        cycle = find_cycle(members, inside)
        out.append(
            Finding(
                "G001",
                Severity.ERROR,
                f"precedence cycle: {' -> '.join(cycle + cycle[:1])}",
                locus=f"task {min(component)}",
                hint="break the loop or use STREAM arcs for concurrent exchange",
            )
        )
    return sorted(out, key=lambda f: f.locus)


def _cyclic_components(
    nodes: Iterable[str], succ: Mapping[str, Sequence[str]]
) -> list[set[str]]:
    """The strongly connected components of two or more nodes (Tarjan's
    algorithm, with an explicit stack instead of recursion)."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    stack: list[str] = []
    on_stack: set[str] = set()
    frames: list[tuple[str, Iterator[str]]] = []
    out: list[set[str]] = []

    def visit(node: str) -> None:
        index[node] = low[node] = len(index)
        stack.append(node)
        on_stack.add(node)
        frames.append((node, iter(succ[node])))

    for root in nodes:
        if root in index:
            continue
        visit(root)
        while frames:
            node, children = frames[-1]
            for child in children:
                if child not in index:
                    visit(child)
                    break
                if child in on_stack:
                    low[node] = min(low[node], index[child])
            else:
                frames.pop()
                if frames:
                    parent = frames[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    component = set()
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.add(member)
                        if member == node:
                            break
                    if len(component) > 1:
                        out.append(component)
    return out


def pass_self_arcs(graph: TaskGraph) -> list[Finding]:
    """G002: src == dst (only constructible by bypassing Arc validation,
    but the verifier must not trust its input)."""
    return [
        Finding(
            "G002",
            Severity.ERROR,
            f"self-arc on task {arc.src!r}",
            locus=f"arc {arc.src}->{arc.dst}",
            hint="a task needs no arc to synchronize with itself; delete it",
        )
        for arc in graph.arcs
        if arc.src == arc.dst
    ]


def pass_dangling_arcs(graph: TaskGraph) -> list[Finding]:
    """G003: arc endpoints that name no task."""
    out = []
    for arc in graph.arcs:
        for end in (arc.src, arc.dst):
            if end not in graph:
                out.append(
                    Finding(
                        "G003",
                        Severity.ERROR,
                        f"arc references unknown task {end!r}",
                        locus=f"arc {arc.src}->{arc.dst}",
                        hint="declare the task or remove the arc",
                    )
                )
    return out


def pass_orphans(graph: TaskGraph) -> list[Finding]:
    """G004: tasks no arc touches. Legal (they just run independently) but
    in a multi-task application an island is usually a wiring mistake."""
    if len(graph) < 2:
        return []
    touched: set[str] = set()
    for arc in graph.arcs:
        touched.add(arc.src)
        touched.add(arc.dst)
    return [
        Finding(
            "G004",
            Severity.WARNING,
            f"task {node.name!r} is connected to nothing",
            locus=f"task {node.name}",
            hint="wire it into the graph or submit it as its own application",
        )
        for node in graph
        if node.name not in touched
    ]


# ----------------------------------------------------------- channels / vMPI


def pass_channel_misuse(graph: TaskGraph) -> list[Finding]:
    """G005: channel names on precedence arcs."""
    return [
        Finding(
            "G005",
            Severity.WARNING,
            f"{arc.kind.value} arc declares channel {arc.channel!r}; "
            "only STREAM arcs carry channels",
            locus=f"arc {arc.src}->{arc.dst}",
            hint="make the arc STREAM or drop the channel name",
        )
        for arc in graph.arcs
        if arc.channel is not None and arc.kind is not ArcKind.STREAM
    ]


def _program_ast(node) -> ast.AST | None:
    """Best-effort AST of a task's program body (None when unavailable —
    builtins, C callables, interactively-defined functions)."""
    if node.program is None:
        return None
    try:
        source = textwrap.dedent(inspect.getsource(node.program))
        return ast.parse(source)
    except (OSError, TypeError, SyntaxError, IndentationError):
        return None


def _comm_calls(tree: ast.AST) -> list[ast.Call]:
    """All Send(...)/Recv(...) constructor calls in a program body."""
    out = []
    for stmt in ast.walk(tree):
        if isinstance(stmt, ast.Call):
            fn = stmt.func
            name = fn.id if isinstance(fn, ast.Name) else (
                fn.attr if isinstance(fn, ast.Attribute) else None
            )
            if name in ("Send", "Recv"):
                out.append(stmt)
    return out


def _call_kwarg(call: ast.Call, name: str, pos: int | None = None):
    """Constant value of keyword *name* (or positional *pos*); returns
    (present, value) where value is None unless a literal constant."""
    for kw in call.keywords:
        if kw.arg == name:
            if isinstance(kw.value, ast.Constant):
                return True, kw.value.value
            return True, None
    if pos is not None and len(call.args) > pos:
        arg = call.args[pos]
        if isinstance(arg, ast.Constant):
            return True, arg.value
        return True, None
    return False, None


def _call_name(call: ast.Call) -> str:
    fn = call.func
    if isinstance(fn, ast.Name):
        return fn.id
    if isinstance(fn, ast.Attribute):
        return fn.attr
    return ""


def pass_program_comms(graph: TaskGraph) -> list[Finding]:
    """G006/G007/G008: static analysis of task program bodies.

    Only constant arguments are judged; anything dynamic is assumed
    correct (this is a linter, not a verifier of halting problems).
    """
    out: list[Finding] = []
    declared: dict[str, set[str]] = {t.name: set() for t in graph}
    for arc in graph.arcs:
        if arc.channel is not None:
            declared.setdefault(arc.src, set()).add(arc.channel)
            declared.setdefault(arc.dst, set()).add(arc.channel)

    # (channel|None, tag) inventories across all programs, for G008
    sends: list[tuple[str, ast.Call, object, object]] = []  # task, call, chan, tag
    recv_keys: set[tuple[object, object]] = set()
    wildcard_recv_channels: set[object] = set()

    for node in graph:
        tree = _program_ast(node)
        if tree is None:
            continue
        uses_collectives = any(
            isinstance(c, ast.Call) and _call_name(c) in COLLECTIVE_NAMES
            for c in ast.walk(tree)
        )
        for call in _comm_calls(tree):
            kind = _call_name(call)
            has_chan, chan = _call_kwarg(call, "channel")
            if has_chan and isinstance(chan, str) and chan not in declared.get(node.name, set()):
                out.append(
                    Finding(
                        "G006",
                        Severity.WARNING,
                        f"program {kind}s on channel {chan!r} that no arc of "
                        f"task {node.name!r} declares",
                        locus=f"task {node.name}",
                        hint=f"add a STREAM arc with channel={chan!r} or fix the name",
                    )
                )
            target_kw = "dst" if kind == "Send" else "src"
            has_target, target = _call_kwarg(call, target_kw, pos=0)
            if (
                not has_chan
                and isinstance(target, int)
                and target >= node.instances
                and not uses_collectives
            ):
                # collectives compute ranks from ctx.size; a constant rank
                # beyond instances in plain code can never be delivered
                out.append(
                    Finding(
                        "G007",
                        Severity.ERROR,
                        f"{kind} addresses rank {target} but task "
                        f"{node.name!r} has {node.instances} instance(s)",
                        locus=f"task {node.name}",
                        hint="raise instances or fix the rank arithmetic",
                    )
                )
            _, tag = _call_kwarg(call, "tag")
            chan_key = chan if has_chan else None
            if kind == "Send":
                sends.append((node.name, call, chan_key, tag))
            else:
                recv_keys.add((chan_key, tag))
                if tag is None:
                    wildcard_recv_channels.add(chan_key)

    for task, call, chan_key, tag in sends:
        if not isinstance(tag, str) or tag in _LIBRARY_TAGS:
            continue
        if (chan_key, tag) in recv_keys or chan_key in wildcard_recv_channels:
            continue
        where = f"channel {chan_key!r}" if chan_key else "the communicator"
        out.append(
            Finding(
                "G008",
                Severity.WARNING,
                f"Send(tag={tag!r}) on {where} is never received by any program",
                locus=f"task {task}",
                hint="add the matching Recv or fix the tag",
            )
        )
    return out


def pass_comm_reachability(graph: TaskGraph) -> list[Finding]:
    """P004: Send/Recv sites that can never be reached in the program.

    The protocol FSMs (:mod:`repro.analysis.protocol`) model a task's
    communication as open → send/recv* → close; a comm call that appears
    after a terminal statement (``return``/``raise``/``break``/``continue``)
    in the same block is statically unreachable — the FSM can never take
    that transition, so the declared protocol and the program disagree.
    """
    out: list[Finding] = []
    terminal = (ast.Return, ast.Raise, ast.Break, ast.Continue)
    for node in graph:
        tree = _program_ast(node)
        if tree is None:
            continue
        dead: list[tuple[str, int]] = []
        for owner in ast.walk(tree):
            for block_field in ("body", "orelse", "finalbody"):
                body = getattr(owner, block_field, None)
                if not isinstance(body, list):
                    continue
                seen_terminal = False
                for stmt in body:
                    if seen_terminal and isinstance(stmt, ast.stmt):
                        for call in ast.walk(stmt):
                            if isinstance(call, ast.Call) and _call_name(call) in (
                                "Send", "Recv"
                            ):
                                dead.append((_call_name(call), call.lineno))
                    if isinstance(stmt, terminal):
                        seen_terminal = True
        for kind, lineno in sorted(set(dead)):
            out.append(
                Finding(
                    "P004",
                    Severity.WARNING,
                    f"{kind} at program line {lineno} of task {node.name!r} "
                    "is unreachable (follows a terminal statement) — the "
                    "comm site can never be taken in the protocol FSM",
                    locus=f"task {node.name}",
                    hint="delete the dead comm call or move it before the "
                         "return/raise",
                )
            )
    return out


# -------------------------------------------------------------- annotations


def pass_annotations(graph: TaskGraph) -> list[Finding]:
    """G010-G013: missing or contradictory SDM annotations."""
    out: list[Finding] = []
    for node in graph:
        locus = f"task {node.name}"
        if node.problem_class is None:
            out.append(
                Finding(
                    "G010",
                    Severity.ERROR,
                    f"task {node.name!r} was never design-classified",
                    locus=locus,
                    hint="run the DesignStage or set node.problem_class",
                )
            )
        if node.language is None or node.program is None:
            missing = "language and program" if (
                node.language is None and node.program is None
            ) else ("language" if node.language is None else "program")
            out.append(
                Finding(
                    "G011",
                    Severity.ERROR,
                    f"task {node.name!r} has no {missing} (coding level incomplete)",
                    locus=locus,
                    hint="attach node.language and node.program before submit",
                )
            )
        if (
            node.problem_class is ProblemClass.SYNCHRONOUS
            and node.instances == 1
            and not graph.stream_peers(node.name)
        ):
            out.append(
                Finding(
                    "G012",
                    Severity.WARNING,
                    f"task {node.name!r} is SYNCHRONOUS but has one instance "
                    "and no stream peers",
                    locus=locus,
                    hint="raise instances, add STREAM arcs, or reclassify",
                )
            )
        if (
            node.requirements.get("lockstep")
            and node.problem_class is ProblemClass.ASYNCHRONOUS
        ):
            out.append(
                Finding(
                    "G013",
                    Severity.WARNING,
                    f"task {node.name!r} hints 'lockstep' yet is classified "
                    "ASYNCHRONOUS",
                    locus=locus,
                    hint="drop the hint or classify the task SYNCHRONOUS",
                )
            )
    return out


#: Default structural/annotation passes, in run order.
DEFAULT_PASSES: tuple[GraphPass, ...] = (
    pass_cycles,
    pass_self_arcs,
    pass_dangling_arcs,
    pass_orphans,
    pass_channel_misuse,
    pass_program_comms,
    pass_comm_reachability,
    pass_annotations,
)


class GraphVerifier:
    """Runs a pass pipeline over a task graph.

    Args:
        passes: structural passes to run (default: all of
            :data:`DEFAULT_PASSES`).
        compilation: when provided, the feasibility pass
            (:mod:`repro.analysis.feasibility`) also runs, checking every
            task's problem class against the machine-class database.
    """

    def __init__(
        self,
        passes: Iterable[GraphPass] | None = None,
        compilation=None,
    ) -> None:
        self.passes: list[GraphPass] = list(passes or DEFAULT_PASSES)
        if compilation is not None:
            from repro.analysis.feasibility import FeasibilityPass

            self.passes.append(FeasibilityPass(compilation))

    def verify(self, graph: TaskGraph) -> AnalysisReport:
        report = AnalysisReport(subject=f"graph {graph.name!r}")
        for p in self.passes:
            report.extend(p(graph))
        return report


def verify_graph(graph: TaskGraph, compilation=None) -> AnalysisReport:
    """One-call verification with the default pipeline."""
    return GraphVerifier(compilation=compilation).verify(graph)
