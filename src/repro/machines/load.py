"""Background (locally-initiated) load models.

The paper's scheduling and migration sections revolve around machines whose
*local* load varies over time: bids carry "the current load of the bidding
machine", the Stealth-style policies suspend remote work "when resource
requirements of locally initiated processes increase", and redundant
execution kills copies on machines that "get busy with other work".

A :class:`LoadModel` answers ``load(t)`` — the fraction of the machine's CPU
consumed by local work at simulation time ``t``, in ``[0, 1]``. The VCE-run
tasks then effectively compute at ``speed * (1 - load(t))``.
"""

from __future__ import annotations

import bisect
import math
from typing import Protocol, Sequence

from repro.util.errors import ConfigurationError
from repro.util.rng import RngStreams


class LoadModel(Protocol):
    """Anything that can report instantaneous local load in [0, 1]."""

    def load(self, t: float) -> float:  # pragma: no cover - protocol
        ...

    def next_change_after(self, t: float) -> float:  # pragma: no cover - protocol
        """Earliest time strictly after *t* at which ``load`` may return a
        different value (``math.inf`` if never) — what lets a load monitor
        skip the stretch in between instead of polling it."""
        ...


def _check_fraction(value: float, what: str) -> float:
    if not 0.0 <= value <= 1.0:
        raise ConfigurationError(f"{what} must be in [0, 1], got {value}")
    return float(value)


class ConstantLoad:
    """A machine whose local load never changes (the default: idle)."""

    def __init__(self, level: float = 0.0) -> None:
        self.level = _check_fraction(level, "load level")

    def load(self, t: float) -> float:
        return self.level

    def next_change_after(self, t: float) -> float:
        return math.inf

    def __repr__(self) -> str:  # pragma: no cover
        return f"ConstantLoad({self.level})"


class TraceLoad:
    """Piecewise-constant load from an explicit ``(time, level)`` trace.

    The level at time *t* is the one set by the last trace point at or
    before *t*; before the first point the load is ``initial``.
    """

    def __init__(self, points: Sequence[tuple[float, float]], initial: float = 0.0) -> None:
        self.initial = _check_fraction(initial, "initial load")
        pts = sorted((float(t), _check_fraction(l, "trace load")) for t, l in points)
        self._times = [t for t, _ in pts]
        self._levels = [l for _, l in pts]

    def load(self, t: float) -> float:
        i = bisect.bisect_right(self._times, t)
        return self.initial if i == 0 else self._levels[i - 1]

    def next_change_after(self, t: float) -> float:
        i = bisect.bisect_right(self._times, t)
        return self._times[i] if i < len(self._times) else math.inf


class StochasticLoad:
    """A two-state (idle/busy) alternating-renewal load process.

    Residence times are exponential with the given means; the sample path is
    generated lazily but deterministically from a named RNG substream, so two
    policies compared under one seed see identical background load — the
    common-random-numbers discipline.

    This stands in for the "locally initiated processes" of Krueger/Clark/Ju:
    a workstation owner who comes and goes.
    """

    def __init__(
        self,
        rng_streams: RngStreams,
        name: str,
        mean_idle: float = 60.0,
        mean_busy: float = 30.0,
        busy_level: float = 0.9,
        start_busy: bool = False,
    ) -> None:
        if mean_idle <= 0 or mean_busy <= 0:
            raise ConfigurationError("mean residence times must be positive")
        self.busy_level = _check_fraction(busy_level, "busy level")
        self.mean_idle = mean_idle
        self.mean_busy = mean_busy
        self._rng = rng_streams.stream(f"load.{name}")
        # _switch_times[i] is the time of the i-th state flip; state before
        # _switch_times[0] is the starting state.
        self._start_busy = start_busy
        self._switch_times: list[float] = []

    def _extend_to(self, t: float) -> None:
        horizon = self._switch_times[-1] if self._switch_times else 0.0
        state_busy = self._state_at_index(len(self._switch_times))
        while horizon <= t:
            mean = self.mean_busy if state_busy else self.mean_idle
            horizon += self._rng.expovariate(1.0 / mean)
            self._switch_times.append(horizon)
            state_busy = not state_busy

    def _state_at_index(self, i: int) -> bool:
        """State in force after the i-th flip (i=0 → starting state)."""
        return self._start_busy ^ (i % 2 == 1)

    def load(self, t: float) -> float:
        self._extend_to(t)
        i = bisect.bisect_right(self._switch_times, t)
        return self.busy_level if self._state_at_index(i) else 0.0

    def next_change_after(self, t: float) -> float:
        """Time of the next state flip strictly after *t*."""
        self._extend_to(t)
        i = bisect.bisect_right(self._switch_times, t)
        if i >= len(self._switch_times):
            self._extend_to(self._switch_times[-1] + 1.0 if self._switch_times else t + 1.0)
            i = bisect.bisect_right(self._switch_times, t)
        return self._switch_times[i]
