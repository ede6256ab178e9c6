"""Which references keep a dropped environment in reference cycles.

A finished environment that is dropped is freed only by the cyclic
collector (docs/PERFORMANCE.md, "The collector and the import path").
:func:`cycle_census` drops what a builder returns with the collector off,
collects with ``gc.DEBUG_SAVEALL`` so the garbage stays inspectable, and
names the references that hold it in cycles: for each strongly connected
component of the garbage, its size, the types in it, and the
``Type.attribute -> Type`` edges inside it, most frequent first. An edge
inside a component is one a cycle runs through; cutting every edge of one
label (say ``Host.sim -> Simulator``) breaks each cycle that needs it.

Run it from the repository root on a cost ledger scenario::

    PYTHONPATH=src python -m tests.helpers_gc faults_e9_calm
"""

from __future__ import annotations

import gc
import sys
import types
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Component:
    """One strongly connected component of the dropped garbage."""

    size: int
    types: Counter = field(default_factory=Counter)
    edges: Counter = field(default_factory=Counter)


def _type_name(obj: Any) -> str:
    return type(obj).__name__


def _label(src: Any, dst: Any) -> str:
    """``Type.attribute -> Type`` for the reference *src* holds to *dst*."""
    name = "?"
    if isinstance(src, dict):
        name = next((f"[{key!r}]" for key, value in src.items() if value is dst), "[...]")
    elif isinstance(src, (list, tuple, set, frozenset)):
        name = "[]"
    elif isinstance(src, types.CellType):
        name = "cell_contents"
    elif isinstance(src, types.FunctionType):
        name = "__closure__" if dst is not src.__globals__ else "__globals__"
    elif isinstance(src, types.MethodType):
        name = "__self__" if src.__self__ is dst else "__func__"
    else:
        attrs = getattr(src, "__dict__", None)
        if attrs is dst:
            name = "__dict__"
        elif isinstance(attrs, dict):
            name = next((key for key, value in attrs.items() if value is dst), "?")
        if name == "?":
            for klass in type(src).__mro__:
                for slot in getattr(klass, "__slots__", ()):
                    if getattr(src, slot, None) is dst:
                        name = slot
                        break
                if name != "?":
                    break
    return f"{_type_name(src)}.{name} -> {_type_name(dst)}"


def _components(garbage: list, succ: dict[int, list[int]]) -> list[list[int]]:
    """Strongly connected components with more than one object, or with a
    self-reference (iterative Tarjan over object ids)."""
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    out: list[list[int]] = []
    for root in (id(obj) for obj in garbage):
        if root in index:
            continue
        work = [(root, iter(succ[root]))]
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        while work:
            node, children = work[-1]
            for child in children:
                if child not in index:
                    index[child] = low[child] = len(index)
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(succ[child])))
                    break
                if child in on_stack:
                    low[node] = min(low[node], index[child])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    members = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        members.append(member)
                        if member == node:
                            break
                    if len(members) > 1 or node in succ[node]:
                        out.append(members)
    return out


def cycle_census(build: Callable[[], Any]) -> tuple[int, list[Component]]:
    """Drop what *build* returns and name what the collector had to free.

    Returns the number of objects ``gc.collect()`` found and the cyclic
    components among them, largest first. The collector is off while
    *build* runs, so only what this call left behind is counted."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        build()  # dropped at once: only what cycles hold survives
        gc.set_debug(gc.DEBUG_SAVEALL)
        found = gc.collect()
        garbage = list(gc.garbage)
        gc.garbage.clear()
    finally:
        gc.set_debug(0)
        if was_enabled:
            gc.enable()
    by_id = {id(obj): obj for obj in garbage}
    succ = {
        key: [id(ref) for ref in gc.get_referents(obj) if id(ref) in by_id]
        for key, obj in by_id.items()
    }
    census = []
    for members in _components(garbage, succ):
        inside = set(members)
        component = Component(size=len(members))
        for key in members:
            obj = by_id[key]
            component.types[_type_name(obj)] += 1
            for ref in succ[key]:
                if ref in inside:
                    component.edges[_label(obj, by_id[ref])] += 1
        census.append(component)
    census.sort(key=lambda c: -c.size)
    return found, census


def report(found: int, census: list[Component], top: int = 12) -> str:
    lines = [f"{found} objects collected; {len(census)} cyclic components"]
    for component in census:
        lines.append(f"- {component.size} objects: " + ", ".join(
            f"{name} {n}" for name, n in component.types.most_common(top)
        ))
        for label, n in component.edges.most_common(top):
            lines.append(f"    {n:5d}  {label}")
    return "\n".join(lines)


if __name__ == "__main__":
    from tests.test_cost_ledger import SCENARIOS

    for name in sys.argv[1:] or ["faults_e9_calm"]:
        print(f"{name}: " + report(*cycle_census(lambda: SCENARIOS[name]()[0])))
