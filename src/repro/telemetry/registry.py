"""The online metrics registry.

Unlike :mod:`repro.metrics` (post-hoc re-derivation from the event log),
the registry holds *live* aggregates — counters, gauges, and histograms —
updated directly at the emission points in the scheduler daemon, runtime
manager, channels, vMPI interpreter, and migration engine. Nothing here
stores per-sample data: histograms use fixed exponential buckets, so
memory stays constant no matter how long a run is.

Naming follows Prometheus conventions: ``snake_case`` with a ``_total``
suffix for counters and a unit suffix (``_seconds``, ``_bytes``) where one
applies. Labels are declared per family and instantiated per child::

    reg = MetricsRegistry()
    reg.counter("sched_requests_total", "bidding rounds led").inc()
    reg.gauge("host_load", "background+VCE load", labels=("host",)) \\
       .labels("ws0").set(0.4)
    reg.histogram("task_duration_seconds", "dispatch->exit").observe(1.2)
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left
from typing import Any, Iterator

from repro.util.errors import ConfigurationError

# default exponential bucket ladder for duration histograms: 1 ms up to
# ~1.3e5 s with a 1.6 growth factor (relative quantile error <= 0.6)
DEFAULT_START = 1e-3
DEFAULT_FACTOR = 1.6
DEFAULT_BUCKETS = 40


@functools.lru_cache(maxsize=64)
def exponential_bounds(
    start: float = DEFAULT_START,
    factor: float = DEFAULT_FACTOR,
    count: int = DEFAULT_BUCKETS,
) -> tuple[float, ...]:
    """Upper bounds ``start * factor**i`` for ``i in [0, count)``; the
    implicit final bucket is ``+Inf``. Bounds are rounded to 9 significant
    digits so exported ``le=`` labels stay readable. Cached — emission
    points may ask for the same ladder on every observation."""
    if start <= 0 or factor <= 1.0 or count < 1:
        raise ConfigurationError(
            f"bad bucket ladder: start={start} factor={factor} count={count}"
        )
    return tuple(float(f"{start * factor**i:.9g}") for i in range(count))


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigurationError(f"counters only go up (inc {amount})")
        self.value += amount


class Gauge:
    """A value that can go up and down (load, queue depth, in-flight)."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Fixed-exponential-bucket histogram with streaming quantiles.

    ``bucket_counts[i]`` counts observations ``<= bounds[i]`` (non-
    cumulative per bucket); observations beyond the last bound land in the
    overflow bucket. :meth:`quantile` interpolates inside the selected
    bucket, so its relative error is bounded by ``factor - 1`` for values
    past the first bucket — adequate for dashboards and watchdog rules
    without storing samples.
    """

    __slots__ = ("bounds", "bucket_counts", "overflow", "count", "sum", "_min", "_max")
    kind = "histogram"

    def __init__(self, bounds: tuple[float, ...]) -> None:
        self.bounds = bounds
        self.bucket_counts = [0] * len(bounds)
        self.overflow = 0
        self.count = 0
        self.sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        bounds = self.bounds
        if value > bounds[-1]:
            self.overflow += 1
            return
        # the first bound >= value
        self.bucket_counts[bisect_left(bounds, value)] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate q-quantile (0 <= q <= 1) by linear interpolation
        inside the holding bucket; exact observed min/max clamp the ends."""
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0.0
        for i, n in enumerate(self.bucket_counts):
            if n == 0:
                continue
            if seen + n >= rank:
                upper = self.bounds[i]
                lower = self.bounds[i - 1] if i > 0 else 0.0
                frac = (rank - seen) / n
                est = lower + frac * (upper - lower)
                return min(max(est, self._min), self._max)
            seen += n
        return self._max  # rank falls in the overflow bucket

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """``(le, cumulative_count)`` pairs, ending with ``(inf, count)`` —
        the Prometheus exposition shape."""
        out = []
        acc = 0
        for bound, n in zip(self.bounds, self.bucket_counts):
            acc += n
            out.append((bound, acc))
        out.append((math.inf, acc + self.overflow))
        return out


class MetricFamily:
    """One named metric with fixed label names and per-label-value children."""

    __slots__ = ("name", "help", "label_names", "kind", "child", "_children", "_make")

    def __init__(self, name: str, help_text: str, label_names: tuple[str, ...], make) -> None:
        self.name = name
        self.help = help_text
        self.label_names = label_names
        self._make = make
        self._children: dict[tuple[str, ...], Any] = {}
        #: the ``()`` child of an unlabelled family once it exists, else None;
        #: a hot emission point updates ``family.child or family.solo()``
        #: directly, the delegating methods below cost two more calls
        self.child: Any = None
        self.kind: str | None = None  # fixed by the registry at creation

    def labels(self, *values: Any) -> Any:
        """Get-or-create the child for one label-value combination."""
        key = tuple(map(str, values))
        if len(key) != len(self.label_names):
            raise ConfigurationError(
                f"metric {self.name!r} takes labels {self.label_names}, got {values!r}"
            )
        child = self._children.get(key)
        if child is None:
            child = self._make()
            self._children[key] = child
            if self.kind is None:
                self.kind = child.kind
        return child

    def samples(self) -> Iterator[tuple[tuple[str, ...], Any]]:
        return iter(sorted(self._children.items()))

    # unlabeled families delegate to the single () child ------------------

    def solo(self) -> Any:
        """The ``()`` child of an unlabelled family, created on first use
        (so a family nothing was counted into exports no sample)."""
        child = self.child
        if child is None:
            child = self.child = self.labels()
        return child

    def inc(self, amount: float = 1.0) -> None:
        self.solo().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self.solo().dec(amount)

    def set(self, value: float) -> None:
        self.solo().set(value)

    def observe(self, value: float) -> None:
        self.solo().observe(value)

    @property
    def value(self) -> float:
        return self.solo().value

    def quantile(self, q: float) -> float:
        return self.solo().quantile(q)


class MetricsRegistry:
    """All live metrics of one VCE, keyed by name.

    ``counter``/``gauge``/``histogram`` are get-or-create: the first call
    fixes the help text, label names, and (for histograms) bucket ladder;
    later calls with the same name return the same family, so emission
    points need no shared setup.
    """

    def __init__(self) -> None:
        self._families: dict[str, MetricFamily] = {}

    def _family(self, name: str, help_text: str, labels, make, kind: str) -> MetricFamily:
        family = self._families.get(name)
        if family is not None:
            if family.kind is not None and family.kind != kind:
                raise ConfigurationError(
                    f"metric {name!r} is a {family.kind}, not a {kind}"
                )
            return family
        family = MetricFamily(name, help_text, tuple(labels), make)
        family.kind = kind
        self._families[name] = family
        return family

    def counter(self, name: str, help_text: str = "", labels=()) -> MetricFamily:
        return self._family(name, help_text, labels, Counter, "counter")

    def gauge(self, name: str, help_text: str = "", labels=()) -> MetricFamily:
        return self._family(name, help_text, labels, Gauge, "gauge")

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labels=(),
        start: float = DEFAULT_START,
        factor: float = DEFAULT_FACTOR,
        count: int = DEFAULT_BUCKETS,
    ) -> MetricFamily:
        bounds = exponential_bounds(start, factor, count)
        return self._family(name, help_text, labels, lambda: Histogram(bounds), "histogram")

    def get(self, name: str) -> MetricFamily | None:
        return self._families.get(name)

    def families(self) -> Iterator[MetricFamily]:
        return iter(sorted(self._families.values(), key=lambda f: f.name))

    def __contains__(self, name: str) -> bool:
        return name in self._families

    def __len__(self) -> int:
        return len(self._families)
