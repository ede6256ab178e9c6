"""Channel monitoring (§4.2).

"these libraries will provide the runtime manager with the ability to
**monitor**, redirect, and move connections between tasks" — redirection
lives on :class:`~repro.channels.channel.Channel`; this module adds the
monitoring side: a :class:`ChannelMonitor` samples every channel's
counters on a fixed period and logs per-interval message/byte rates, which
the metrics layer (and load-balancing policies that want to co-locate
chatty endpoints) can read back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.channels.channel import Channel, ChannelManager
    from repro.netsim.kernel import Simulator


@dataclass(frozen=True, slots=True)
class ChannelSample:
    """One channel's traffic during one sampling interval."""

    channel: str
    time: float
    messages_per_s: float
    bytes_per_s: float
    drops: int


class ChannelMonitor:
    """Periodic sampler over a :class:`ChannelManager`'s channels."""

    def __init__(
        self,
        sim: "Simulator",
        channels: "ChannelManager",
        interval: float = 1.0,
    ) -> None:
        self.sim = sim
        self.channels = channels
        self.interval = interval
        self._running = False
        #: per channel seen at the last tick: the object and its counters
        #: then (messages, bytes, drops)
        self._last: dict[str, tuple["Channel", int, int, int]] = {}
        self.samples: list[ChannelSample] = []

    def start(self) -> "ChannelMonitor":
        if not self._running:
            self._running = True
            self.sim.schedule(self.interval, self._tick, daemon=True)
        return self

    def stop(self) -> None:
        self._running = False

    def _tick(self) -> None:
        if not self._running:
            return
        live = self.channels._channels
        previous, self._last = self._last, {}
        for name, entry in previous.items():
            seen = self._sample(name, *entry)
            if live.get(name) is entry[0]:
                self._last[name] = seen
            # else destroyed since the last tick: that was its tail, and the
            # monitor forgets it
        for name, channel in list(live.items()):
            if name not in self._last:
                self._last[name] = self._sample(name, channel, 0, 0, 0)
        self.sim.schedule(self.interval, self._tick, daemon=True)

    def _sample(
        self, name: str, channel: "Channel", prev_m: int, prev_b: int, prev_d: int
    ) -> tuple["Channel", int, int, int]:
        """Record *channel*'s traffic since the counters it had last tick;
        returns what to compare against at the next one."""
        dm = channel.messages - prev_m
        db = channel.bytes - prev_b
        dd = channel.dropped_no_receiver - prev_d
        if dm or db or dd:
            sample = ChannelSample(
                name, self.sim.now, dm / self.interval, db / self.interval, dd
            )
            self.samples.append(sample)
            self.sim.emit(
                "channel.sample",
                name,
                messages_per_s=sample.messages_per_s,
                bytes_per_s=sample.bytes_per_s,
                drops=dd,
            )
        return (channel, channel.messages, channel.bytes, channel.dropped_no_receiver)

    # ------------------------------------------------------------- queries

    def busiest(self, n: int = 5) -> list[tuple[str, float]]:
        """Channels ranked by peak observed bytes/s."""
        peaks: dict[str, float] = {}
        for sample in self.samples:
            peaks[sample.channel] = max(peaks.get(sample.channel, 0.0), sample.bytes_per_s)
        return sorted(peaks.items(), key=lambda kv: -kv[1])[:n]

    def rate_series(self, channel: str) -> list[tuple[float, float]]:
        """(time, bytes/s) samples for one channel."""
        return [(s.time, s.bytes_per_s) for s in self.samples if s.channel == channel]
