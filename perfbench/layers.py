"""Outside-in layer tracer for the traced repetition.

Nothing inside ``src/repro`` knows about this file.  For one traced run the
public entry points of each layer are replaced, at class level, by wrappers
that time the call; every patched attribute is put back by ``restore()``.
The wrappers only read clocks and count, so the simulation is not perturbed:
a traced run's event-log digest equals the untraced one (self-tested).

What is wrapped, and the layer it is charged to (layer names are the package
paths under ``src/repro``):

- ``Simulator.run`` -> ``netsim.kernel`` (its self time is the event loop:
  ``run()`` minus everything its callbacks did; other entry points are
  charged to their module, ``isis.member``, ``scheduler.daemon`` ..., and
  ``layer_self("scheduler")`` sums a package);
  ``Simulator.schedule_at/call_soon`` -> ``netsim.kernel.schedule``
  (``schedule`` delegates to ``schedule_at``, so it is covered).
  The scheduling wrappers also wrap the *callback* they are handed, charged
  to the module that defined it (``netsim.network`` for a delivery,
  ``netsim.process`` for a timer, ``migration.failover`` for a lease check),
  so "callback time" is complete without touching any private method;
- ``Timer.cancel`` (counted only), ``Network.send``, ``Host.deliver``;
- ``on_start/on_message/on_timer/on_stop/on_crash`` of every ``SimProcess``
  subclass, each class's *own* methods, so a ``super()`` call splits the
  scheduler daemon's self time from the Isis member it extends;
- ``RuntimeManager.submit/dispatch_instance/terminate``,
  ``TaskGraph.predecessors/successors``, ``Channel.send``,
  ``VirtualComputingEnvironment.submit``, ``Simulator.emit``;
- ``FrameRouter.route/send`` on the network backend (frames are kept so the
  codec can be timed on exactly what the run sent).

A span's self time is its duration minus the time its child spans cover.
Self time and call counts are aggregated per layer in memory; full spans are
kept for the first ``KEEP_EVENTS`` kernel events (or applications on the
network backend); aggregates and spans are written out when the run ends.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

from repro.channels.channel import Channel
from repro.core.environment import VirtualComputingEnvironment
from repro.netexec.transport import FrameRouter
from repro.netsim.host import Host
from repro.netsim.kernel import Simulator, Timer
from repro.netsim.network import Network
from repro.netsim.process import SimProcess
from repro.runtime.manager import RuntimeManager
from repro.taskgraph.graph import TaskGraph

#: full spans are kept for this many kernel events / applications
KEEP_EVENTS = 20_000

_HOOKS = ("on_start", "on_message", "on_timer", "on_stop", "on_crash")


def layer_of(module: str | None) -> str:
    """``repro.isis.member`` -> ``isis.member``; ``repro.soak`` -> ``soak``;
    anything outside the program -> ``perfbench``.  Aggregates are kept per
    module and summed per package by ``layer_self``."""
    parts = (module or "").split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return "perfbench"
    return ".".join(parts[1:3])


def process_classes() -> list[type]:
    """Every SimProcess subclass that is loaded, base classes first."""
    out: list[type] = []
    todo = [SimProcess]
    while todo:
        cls = todo.pop()
        for sub in cls.__subclasses__():
            if sub not in out:
                out.append(sub)
                todo.append(sub)
    return out


class LayerTracer:
    """See module docstring.  One tracer per traced repetition."""

    def __init__(self, workload: Any) -> None:
        self.workload = workload
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        #: per call of a few named entry points (taskgraph.predecessors, ...)
        self.entry_calls: Counter = Counter()
        self.payload_types: Counter = Counter()
        self.timer_keys: Counter = Counter()
        self.timer_cancels = 0
        self.scheduled = 0
        #: seconds inside outermost spans (the rest of the timed phase is
        #: unattributed)
        self.root_s = 0.0
        #: messages seen at FrameRouter.route/send, in order
        self.frames: list[Any] = []
        #: (layer, name, start, duration, depth, ordinal), in closing order
        self.spans: list[tuple[str, str, float, float, int, int]] = []
        self.ordinal = 0
        self._events = 0
        self._recording = True
        self._stack: list[float] = []  # child time of each open span
        self._patched: list[tuple[Any, str, Any]] = []
        self._callback_layers: dict[str | None, str] = {}

    # ------------------------------------------------------------ spans

    def _span(self, fn: Callable, layer: str, name: str) -> Callable:
        stack = self._stack
        self_s, calls = self.self_s, self.calls
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - t0
                self_s[layer] += duration - stack.pop()
                calls[layer] += 1
                if stack:
                    stack[-1] += duration
                else:
                    tracer.root_s += duration
                if tracer._recording:
                    tracer.spans.append(
                        (layer, name, t0, duration, len(stack), tracer.ordinal)
                    )

        return traced

    def _patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _patch_span(
        self,
        owner: Any,
        attr: str,
        layer: str | None = None,
        count: Callable[..., None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` by a span; *count*, when given, sees the
        positional arguments of every call first."""
        layer = layer or layer_of(owner.__module__)
        span = self._span(owner.__dict__[attr], layer, f"{owner.__name__}.{attr}")
        if count is None:
            self._patch(owner, attr, span)
            return

        def counted(*args: Any, **kwargs: Any) -> Any:
            count(*args)
            return span(*args, **kwargs)

        self._patch(owner, attr, counted)

    # -------------------------------------------------------- callbacks

    def _callback(self, callback: Callable, sim: Simulator) -> Callable:
        """The scheduled callback, as a span of the module that defined it;
        each one is one kernel event."""
        module = getattr(callback, "__module__", None)
        layer = self._callback_layers.get(module)
        if layer is None:
            layer = self._callback_layers[module] = layer_of(module)
        span = self._span(callback, layer, getattr(callback, "__qualname__", "callback"))
        tracer = self

        def fire() -> None:
            if tracer._recording:
                tracer._events += 1
                tracer.ordinal = sim.events_processed
                if tracer._events > KEEP_EVENTS:
                    tracer._recording = False
            span()

        return fire

    # ---------------------------------------------------------- install

    def install(self) -> None:
        if self.workload.backend == "network":
            self._install_network()
        else:
            self._install_simulator()

    def _install_simulator(self) -> None:
        tracer = self
        schedule_layer = "netsim.kernel.schedule"

        self._patch_span(Simulator, "run", "netsim.kernel")
        for attr in ("schedule_at", "call_soon"):
            inner = self._span(
                Simulator.__dict__[attr], schedule_layer, f"Simulator.{attr}"
            )
            # callback is the first argument of call_soon, the second of
            # schedule_at; every caller in the program passes it by position
            at = 0 if attr == "call_soon" else 1

            def scheduling(sim: Simulator, *args: Any, _inner=inner, _at=at, **kw: Any):
                tracer.scheduled += 1
                wrapped = list(args)
                wrapped[_at] = tracer._callback(args[_at], sim)
                return _inner(sim, *wrapped, **kw)

            self._patch(Simulator, attr, scheduling)

        cancel = Timer.__dict__["cancel"]

        def counting_cancel(timer: Timer) -> None:
            tracer.timer_cancels += 1
            cancel(timer)

        self._patch(Timer, "cancel", counting_cancel)

        payload_types = self.payload_types

        def count_payload(_network: Any, _src: Any, _dst: Any, payload: Any, *_size: Any) -> None:
            payload_types[type(payload).__name__] += 1

        self._patch_span(Network, "send", count=count_payload)
        self._patch_span(Host, "deliver")

        for cls in process_classes():
            for hook in _HOOKS:
                if hook in cls.__dict__:
                    count = self._timer_key_counter(cls) if hook == "on_timer" else None
                    self._patch_span(cls, hook, count=count)

        for attr in ("submit", "dispatch_instance", "terminate"):
            self._patch_span(RuntimeManager, attr)
        for attr in ("predecessors", "successors"):
            self._patch_span(TaskGraph, attr, count=self._entry_counter(f"TaskGraph.{attr}"))
        self._patch_span(Channel, "send")
        self._patch_span(VirtualComputingEnvironment, "submit")
        self._patch_span(Simulator, "emit", "util.eventlog")

    def _timer_key_counter(self, cls: type) -> Callable[..., None]:
        """Counts which timers fire: ``<layer>:<key up to the first ':'>``
        (``isis.member:hb``, ``scheduler.daemon:retry-queue``, ``soak:arr``)."""
        label = f"{layer_of(cls.__module__)}:"
        keys = self.timer_keys

        def count(_process: Any, key: str) -> None:
            keys[label + key.partition(":")[0]] += 1

        return count

    def _entry_counter(self, name: str) -> Callable[..., None]:
        entry_calls = self.entry_calls

        def count(*_args: Any) -> None:
            entry_calls[name] += 1

        return count

    def _install_network(self) -> None:
        tracer = self
        for attr in ("route", "send"):
            traced = self._span(
                FrameRouter.__dict__[attr], "netexec.transport", f"FrameRouter.{attr}"
            )

            def capturing(router: FrameRouter, *args: Any, _traced=traced) -> Any:
                tracer.frames.append(args[-1])
                return _traced(router, *args)

            self._patch(FrameRouter, attr, capturing)
        self.workload.on_app = self._next_app

    def _next_app(self, ordinal: int) -> None:
        self.ordinal = ordinal
        if ordinal >= KEEP_EVENTS:
            self._recording = False

    def restore(self) -> None:
        """Put every patched attribute back (last patched first)."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ output

    def layer_self(self, prefix: str) -> float:
        """Self seconds of layer *prefix* and of every layer below it."""
        return sum(
            seconds
            for layer, seconds in self.self_s.items()
            if layer == prefix or layer.startswith(prefix + ".")
        )

    def span_rows(self) -> list[dict]:
        """Recorded spans with ids and parents.  Spans are stored in closing
        order with their depth; as the run is single-threaded they nest, so
        a span's parent is the next one to close one level up."""
        rows: list[dict] = []
        waiting: dict[int, list[int]] = {}  # depth -> ids waiting for a parent
        for i, (layer, name, start, duration, depth, ordinal) in enumerate(self.spans):
            rows.append({
                "id": i, "parent": None, "layer": layer, "name": name,
                "start_s": start, "dur_s": duration, "event": ordinal,
            })
            for child in waiting.pop(depth + 1, ()):
                rows[child]["parent"] = i
            waiting.setdefault(depth, []).append(i)
        return rows

    def dump(self, directory: Path, name: str) -> None:
        """Write ``<name>.layers.json`` (the aggregates) and
        ``<name>.trace.json`` (the recorded spans as a Chrome trace: open in
        chrome://tracing or Perfetto; ``args`` holds each span's id, its
        parent's id and the kernel event or application it belongs to)."""
        directory.mkdir(exist_ok=True)
        (directory / f"{name}.layers.json").write_text(json.dumps({
            "workload": name,
            "layers": {
                layer: {"self_s": self.self_s[layer], "calls": self.calls[layer]}
                for layer in sorted(self.self_s)
            },
            "root_s": self.root_s,
            "scheduled": self.scheduled,
            "timer_cancels": self.timer_cancels,
            "timer_keys": dict(self.timer_keys),
            "payload_types": dict(self.payload_types),
            "entry_calls": dict(self.entry_calls),
            "spans_kept": len(self.spans),
        }, indent=1))
        rows = self.span_rows()
        origin = min((row["start_s"] for row in rows), default=0.0)
        (directory / f"{name}.trace.json").write_text(json.dumps({
            "traceEvents": [
                {
                    "name": row["name"], "cat": row["layer"], "ph": "X",
                    "pid": 1, "tid": 1,
                    "ts": (row["start_s"] - origin) * 1e6, "dur": row["dur_s"] * 1e6,
                    "args": {"id": row["id"], "parent": row["parent"], "event": row["event"]},
                }
                for row in rows
            ]
        }))
