"""Bounded ring-buffer time series for sampled telemetry.

The :class:`ClusterSampler` appends one point per metric per sample; a
:class:`RingSeries` keeps the last *capacity* of them so `repro top` can
draw short load histories and the watchdog can evaluate windowed rules,
while memory stays constant over arbitrarily long runs.

A series is sample-and-hold: the sampler skips grid points at which
nothing it reads can have changed, so between two points the value is that
of the earlier one (:meth:`RingSeries.at`), and windowed rules are written
in simulated time, not in numbers of points.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator

SPARK_CHARS = "▁▂▃▄▅▆▇█"

#: grid times are sums of the sampling interval, deadlines and window edges
#: are sums and differences of other floats: two times closer than this
#: fraction of the interval are the same grid point
GRID_TOLERANCE = 1e-6


class RingSeries:
    """The last *capacity* ``(time, value)`` points of one series."""

    __slots__ = ("_points", "push")

    def __init__(self, capacity: int = 600) -> None:
        if capacity < 1:
            raise ValueError(f"series capacity must be >= 1, got {capacity}")
        self._points: deque[tuple[float, float]] = deque(maxlen=capacity)
        #: ``push((time, value))`` appends one point: the ring's own append,
        #: for a writer that appends to many series per sample
        self.push = self._points.append

    def append(self, time: float, value: float) -> None:
        self._points.append((time, value))

    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self) -> Iterator[tuple[float, float]]:
        return iter(self._points)

    @property
    def capacity(self) -> int:
        return self._points.maxlen or 0

    def latest(self) -> float | None:
        return self._points[-1][1] if self._points else None

    def values(self) -> list[float]:
        return [v for _, v in self._points]

    def window(self, since: float) -> list[tuple[float, float]]:
        """Points with ``time >= since`` (newest-biased scan)."""
        out = []
        for t, v in reversed(self._points):
            if t < since:
                break
            out.append((t, v))
        out.reverse()
        return out

    def at(self, time: float) -> float | None:
        """The value held at *time* — that of the newest point at or before
        it; None before the first point."""
        for t, v in reversed(self._points):
            if t <= time:
                return v
        return None

    def held_since(self, floor: float, horizon: float) -> float | None:
        """Start time of the trailing run of points with value >= *floor*
        (None when the newest point is below it), looking back no further
        than the first point at or before *horizon*."""
        start = None
        for t, v in reversed(self._points):
            if v < floor:
                break
            start = t
            if t <= horizon:
                break
        return start

    def tail(self, n: int) -> list[float]:
        """The last *n* values (fewer if the series is shorter)."""
        if n <= 0:
            return []
        points = self._points
        return [points[i][1] for i in range(max(0, len(points) - n), len(points))]

    def delta(self, n: int) -> float:
        """value[-1] - value[-1-n] — the increase over the last *n* steps
        (for counters sampled as totals). 0.0 when not enough points."""
        points = self._points
        if n <= 0 or len(points) <= n:
            return 0.0
        return points[-1][1] - points[-1 - n][1]

    def spark(self, width: int = 16) -> str:
        """Unicode sparkline of the last *width* values."""
        values = self.tail(width)
        if not values:
            return ""
        lo, hi = min(values), max(values)
        span = hi - lo
        if span <= 0:
            return SPARK_CHARS[0] * len(values)
        top = len(SPARK_CHARS) - 1
        return "".join(
            SPARK_CHARS[min(top, int((v - lo) / span * top + 0.5))] for v in values
        )


class SeriesStore:
    """Named ring series, created on first append.

    Keys are ``(metric, key)`` pairs — e.g. ``("host_load", "ws0")`` — so
    per-host and cluster-wide series coexist without name mangling.
    """

    def __init__(self, capacity: int = 600) -> None:
        self.capacity = capacity
        self._series: dict[tuple[str, str], RingSeries] = {}

    def series(self, metric: str, key: str = "") -> RingSeries:
        handle = self._series.get((metric, key))
        if handle is None:
            handle = RingSeries(self.capacity)
            self._series[(metric, key)] = handle
        return handle

    def append(self, metric: str, key: str, time: float, value: float) -> None:
        self.series(metric, key).append(time, value)

    def keys_for(self, metric: str) -> list[str]:
        return sorted(k for m, k in self._series if m == metric)

    def items(self) -> Iterator[tuple[tuple[str, str], RingSeries]]:
        return iter(sorted(self._series.items()))

    def __len__(self) -> int:
        return len(self._series)

    def __contains__(self, key: tuple[str, str]) -> bool:
        return key in self._series
