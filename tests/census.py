"""Census of the ``src/`` functions that no root reaches.

    python tests/census.py

Runs every root under ``sys.setprofile`` and lists each function defined
under ``src/repro`` that none of them called, with the total of their
lines.  It exits 1 when that total is above ``CEILING_LINES``: a change
that leaves more code unreached than this file allows either gives the
code a caller in a root, deletes it, or raises the ceiling on purpose.

The roots are what the repository runs to show that it works:

- the six perfbench workloads, in this process at ``PERFBENCH_SCALE``,
  traced as in a traced repetition, with perfbench's end-to-end and
  per-layer readers applied to the outcome;
- ``tests/test_paper_claims.py``, ``tests/test_cli.py`` and
  ``tests/test_controlplane.py`` under pytest;
- the ``repro lint`` and ``repro sanitize`` commands of CI.

The netexec daemons are child processes.  The supervisor hands its own
``PYTHONPATH`` on to them, so a ``sitecustomize.py`` placed first on it
installs the same hook there and writes what the child reached when it
exits (at normal exit, and on ``SIGTERM``, which the supervisor sends to
a daemon still running at shutdown).

A root that installs its own profile function (the cost ledger counts
calls with one) gets it called after the census hook, so what runs under
it is counted too.  A function nested in an unreached function is listed,
but its lines are counted once, with the function around it.  Code the interpreter calls
(``__eq__``, ``__hash__``, a property) counts as reached like any other.
This file is not collected by pytest (its name does not match
``test_*.py``); CI runs it in the ``perfbench-smoke`` job.
"""

from __future__ import annotations

import ast
import io
import json
import os
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src"), str(ROOT)]

#: unreached lines allowed (this tree's count; lower it when code goes)
CEILING_LINES = 1628
PERFBENCH_SCALE = 0.1
PYTEST_ROOTS = (
    "tests/test_paper_claims.py",
    "tests/test_cli.py",
    "tests/test_controlplane.py",
)
#: (argv, expected exit code) of every ``repro lint`` / ``repro sanitize``
#: step in .github/workflows/ci.yml
CLI_ROOTS = (
    (["lint", "--det", "src/repro", "--strict"], 0),
    (["lint", "examples/apps/snow.vce", "examples/apps/adaptive_farm.vce"], 0),
    (["lint", "examples/broken_graph.py"], 1),
    (["sanitize", "randomdag", "chaos-mix"], 0),
    (["sanitize", "injected-race", "--shuffles", "2", "--no-static"], 1),
)

_CHILD_HOOK = '''\
import atexit, json, os, signal, sys, threading

_seen = set()


def _hook(frame, event, arg):
    if event == "call":
        _seen.add(frame.f_code)


def _flush():
    sys.setprofile(None)
    reached = sorted({(c.co_filename, c.co_firstlineno) for c in list(_seen)})
    with open(os.path.join(OUT, f"{os.getpid()}.json"), "w") as f:
        json.dump(reached, f)


def _on_term(signum, frame):
    _flush()
    os._exit(128 + signum)


OUT = %r
sys.setprofile(_hook)
threading.setprofile(_hook)
atexit.register(_flush)
signal.signal(signal.SIGTERM, _on_term)
'''


# ------------------------------------------------------------------ inventory


def src_functions() -> dict[tuple[str, int], dict]:
    """``(file, first line) -> {name, lines, parent}`` for every ``def``
    under ``src/repro``; the first line is the first decorator's, as in
    ``co_firstlineno``, and *parent* is the key of the enclosing ``def``."""
    out: dict[tuple[str, int], dict] = {}
    for path in sorted(SRC.rglob("*.py")):
        filename = str(path.resolve())
        tree = ast.parse(path.read_text(), filename)

        def visit(node, qual: str, parent) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    key = (filename, first)
                    name = f"{qual}{child.name}"
                    out[key] = {
                        "name": name,
                        "lines": child.end_lineno - first + 1,
                        "parent": parent,
                    }
                    visit(child, f"{name}.", key)
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{qual}{child.name}.", parent)
                else:
                    visit(child, qual, parent)

        visit(tree, "", None)
    return out


# ----------------------------------------------------------------------- roots


def run_perfbench() -> None:
    import metrics
    from layers import LayerTracer
    from workloads import WORKLOADS

    for name, cls in WORKLOADS.items():
        workload = cls(1, PERFBENCH_SCALE)
        try:
            workload.setup()
            tracer = LayerTracer(workload)
            tracer.install()
            before = metrics.counters(workload)
            try:
                wall_s = workload.run()
            finally:
                tracer.restore()
            delta = metrics.counters(workload)
            delta.subtract(before)
        finally:
            workload.close()
        outcome = workload.outcome()
        if outcome.failed or outcome.errors:
            raise SystemExit(f"census: perfbench {name} failed: {outcome.errors[:3]}")
        metrics.end_to_end(outcome, wall_s, 0.0, 0.0)
        metrics.per_layer(workload, outcome, tracer, delta, wall_s)
        print(f"census: perfbench {name} ok ({outcome.work} {outcome.work_unit})")


def run_pytest() -> None:
    import pytest

    code = pytest.main(["-q", "-p", "no:cacheprovider", *PYTEST_ROOTS])
    if code != 0:
        raise SystemExit(f"census: pytest roots failed (exit {code})")


def run_cli(scratch: str) -> None:
    from repro.cli import main

    for argv, expected in CLI_ROOTS:
        if argv[0] == "sanitize" and expected == 0:
            argv = [*argv, "--json", os.path.join(scratch, "sanitize.json")]
        code = main(argv, out=io.StringIO())
        if code != expected:
            raise SystemExit(f"census: repro {' '.join(argv)} exited {code}, not {expected}")
        print(f"census: repro {' '.join(argv)} -> {code}")


# ---------------------------------------------------------------------- census


def reached_in(children: Path) -> set[tuple[str, int]]:
    out = set()
    for path in children.glob("*.json"):
        out.update((os.path.realpath(f), line) for f, line in json.loads(path.read_text()))
    return out


def main() -> int:
    os.chdir(ROOT)
    with tempfile.TemporaryDirectory(prefix="census-") as scratch:
        hook_dir = Path(scratch) / "hook"
        children = Path(scratch) / "children"
        hook_dir.mkdir()
        children.mkdir()
        (hook_dir / "sitecustomize.py").write_text(_CHILD_HOOK % str(children))
        old = os.environ.get("PYTHONPATH")
        os.environ["PYTHONPATH"] = str(hook_dir) + (os.pathsep + old if old else "")

        seen: set = set()

        def hook(frame, event, arg):
            if event == "call":
                seen.add(frame.f_code)

        set_profile = sys.setprofile

        def chained(fn):
            """A root's own profile function (the cost ledger counts calls
            with one) runs after the census hook, which stays on."""
            if fn is None:
                set_profile(hook)
                return

            def both(frame, event, arg):
                hook(frame, event, arg)
                return fn(frame, event, arg)

            set_profile(both)

        threading.setprofile(hook)
        sys.setprofile = chained
        set_profile(hook)
        try:
            run_perfbench()
            run_cli(scratch)
            run_pytest()
        finally:
            sys.setprofile = set_profile
            set_profile(None)
            threading.setprofile(None)
            if old is None:
                del os.environ["PYTHONPATH"]
            else:
                os.environ["PYTHONPATH"] = old
        reached = {(os.path.realpath(c.co_filename), c.co_firstlineno) for c in seen}
        n_children = len(list(children.glob("*.json")))
        reached |= reached_in(children)

    functions = src_functions()
    unreached = {key for key in functions if key not in reached}
    total = 0
    rows = []
    for key in sorted(unreached):
        info = functions[key]
        nested = info["parent"] in unreached
        if not nested:
            total += info["lines"]
        rel = os.path.relpath(key[0], ROOT)
        note = "  (inside an unreached function)" if nested else ""
        rows.append(f"{rel}:{key[1]}  {info['name']}  {info['lines']} lines{note}")
    print("\n".join(rows))
    print(
        f"census: {len(unreached)} of {len(functions)} src functions unreached, "
        f"{total} lines; {n_children} child processes traced; "
        f"ceiling {CEILING_LINES} lines"
    )
    if total > CEILING_LINES:
        print(f"census: {total - CEILING_LINES} unreached lines above the ceiling")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
