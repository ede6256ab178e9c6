"""Interpreter: statement list → :class:`ApplicationDescription`.

Conditionals are evaluated against an :class:`Environment` that knows the
current availability of each machine class (from the group directory or
machine database) plus ``SET`` variables; problem-class directives resolve
to machine classes through the compilation manager's preference table.
"""

from __future__ import annotations

import posixpath
from typing import Callable, Iterable

from repro.compilation.classes import DEFAULT_CLASS_MAP
from repro.machines.archclass import MachineClass
from repro.script.ast import (
    ApplicationDescription,
    Available,
    ChannelSpec,
    ChannelStmt,
    Compare,
    Condition,
    Directive,
    Expr,
    IntLit,
    ModuleDirective,
    PrioritySpec,
    SetVar,
    Stmt,
    VarRef,
)
from repro.util.errors import ScriptError

_OPS: dict[str, Callable[[int, int], bool]] = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


class Environment:
    """Evaluation context for scripts.

    Args:
        available: machine-class → count of biddable machines (what
            ``AVAILABLE(...)`` reports). Pass the group directory's member
            counts or the machine database's class counts.
        variables: initial variable bindings (callers may predefine
            parameters; ``SET`` adds more).
    """

    def __init__(
        self,
        available: dict[MachineClass, int] | None = None,
        variables: dict[str, int] | None = None,
    ) -> None:
        self.available = dict(available or {})
        self.variables = dict(variables or {})

    def eval(self, expr: Expr) -> int:
        if isinstance(expr, IntLit):
            return expr.value
        if isinstance(expr, VarRef):
            if expr.name not in self.variables:
                raise ScriptError(f"undefined variable {expr.name!r}")
            return self.variables[expr.name]
        if isinstance(expr, Available):
            return self.available.get(expr.machine_class, 0)
        if isinstance(expr, Compare):
            return int(_OPS[expr.op](self.eval(expr.left), self.eval(expr.right)))
        raise ScriptError(f"cannot evaluate {expr!r}")  # pragma: no cover


def task_name_from_path(path: str) -> str:
    """``/apps/snow/collector.vce`` → ``collector``."""
    base = posixpath.basename(path)
    return base[: -len(".vce")] if base.endswith(".vce") else base


def interpret(
    statements: Iterable[Stmt],
    env: Environment | None = None,
    name: str = "app",
    class_map=None,
) -> ApplicationDescription:
    """Evaluate a parsed script into an :class:`ApplicationDescription`."""
    env = env or Environment()
    class_map = class_map or DEFAULT_CLASS_MAP
    desc = ApplicationDescription(name)
    paths: dict[str, str] = {}  # path -> task name

    def add_module(directive: Directive) -> None:
        task = task_name_from_path(directive.path)
        if any(m.task == task for m in desc.modules):
            raise ScriptError(
                f"module {task!r} declared twice", line=directive.line
            )
        if directive.local:
            machine_class = None
        elif directive.machine_class is not None:
            machine_class = directive.machine_class
        else:
            assert directive.problem_class is not None
            machine_class = class_map[directive.problem_class][0]
        desc.modules.append(
            ModuleDirective(
                task=task,
                path=directive.path,
                machine_class=machine_class,
                problem_class=directive.problem_class,
                min_instances=directive.min_instances,
                max_instances=directive.max_instances,
            )
        )
        paths[directive.path] = task

    _run(statements, env, desc, paths, add_module)
    if not desc.modules:
        raise ScriptError("script declares no modules")
    return desc


def _run(
    body: Iterable[Stmt],
    env: Environment,
    desc: ApplicationDescription,
    paths: dict[str, str],
    add_module: Callable[[Directive], None],
) -> None:
    # module-level, not nested in interpret: a nested function that recurses
    # through its own closure cell is a reference cycle holding every local
    # of the call, which only the cyclic collector could free
    for stmt in body:
        if isinstance(stmt, Directive):
            add_module(stmt)
        elif isinstance(stmt, ChannelStmt):
            src = paths.get(stmt.src_path)
            dst = paths.get(stmt.dst_path)
            if src is None or dst is None:
                missing = stmt.src_path if src is None else stmt.dst_path
                raise ScriptError(
                    f"CHANNEL references undeclared module {missing!r}",
                    line=stmt.line,
                )
            desc.channels.append(ChannelSpec(stmt.name, src, dst, stmt.volume))
        elif isinstance(stmt, SetVar):
            env.variables[stmt.name] = env.eval(stmt.expr)
        elif isinstance(stmt, PrioritySpec):
            desc.priority = float(stmt.value)
        elif isinstance(stmt, Condition):
            branch = stmt.then_body if env.eval(stmt.expr) else stmt.else_body
            _run(branch, env, desc, paths, add_module)
        else:  # pragma: no cover - parser guarantees coverage
            raise ScriptError(f"unknown statement {stmt!r}")
