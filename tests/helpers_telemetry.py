"""The reference poller the change-driven cluster sampler is checked against.

The shipped :class:`ClusterSampler` skips every grid point at which nothing
it reads can have changed. :class:`PollingSampler` is what it replaced — the
same reads at *every* grid point — kept here, and only here, as the
reference: a run under it must produce the same series (up to repeated
values) and the same ``health.*`` records as the run under the shipped one.
"""

from __future__ import annotations

from contextlib import contextmanager

import repro.telemetry.service as telemetry_service
from repro.telemetry.sampler import ClusterSampler


class PollingSampler(ClusterSampler):
    """Samples at every grid point, and checks the watchdog's time-window
    rules against their point-count form — "the last N samples" — which is
    what they meant while every grid point was a sample."""

    def _grid_point(self) -> None:
        self.sample()
        self._check_window_rules()

    def _check_window_rules(self) -> None:
        dog, store = self.watchdog, self.store
        cfg = dog.config
        for host in self.daemons:
            depths = store.series("daemon_queue_depth", host).tail(cfg.queue_depth_ticks)
            saturated = len(depths) == cfg.queue_depth_ticks and all(
                d >= cfg.queue_depth_threshold for d in depths
            )
            assert saturated == (("queue_saturation", host) in dog._active), (
                self.now, host, depths,
            )
        errors = store.series("sched_alloc_errors_total", "").delta(cfg.alloc_error_window)
        assert (errors >= cfg.alloc_error_threshold) == (
            ("alloc_errors", "cluster") in dog._active
        ), (self.now, errors)


@contextmanager
def polling_sampler():
    """Environments built inside the block get the reference poller."""
    shipped = telemetry_service.ClusterSampler
    telemetry_service.ClusterSampler = PollingSampler
    try:
        yield
    finally:
        telemetry_service.ClusterSampler = shipped


def changes(series) -> list[tuple[float, float]]:
    """The points of *series* at which its value changed: repeated
    consecutive values (the poller's idle grid points, the shipped
    sampler's keep-alives) carry no information and are dropped."""
    out: list[tuple[float, float]] = []
    for time, value in series:
        if not out or out[-1][1] != value:
            out.append((time, value))
    return out


def health_records(log) -> list[tuple]:
    return [
        (r.time, r.category, r.source, r.data)
        for r in log
        if r.category.startswith("health.")
    ]


def assert_matches_reference(scenario) -> tuple:
    """Run *scenario* (a callable returning a finished VCE) under the
    shipped sampler and under the reference poller; every series must agree
    change for change and the ``health.*`` records record for record.
    Returns the two environments for further assertions."""
    shipped = scenario()
    with polling_sampler():
        reference = scenario()
    poller = reference.telemetry.sampler
    assert isinstance(poller, PollingSampler) and poller.idle_ticks == 0
    assert not isinstance(shipped.telemetry.sampler, PollingSampler)
    ours = dict(shipped.telemetry.store.items())
    theirs = dict(reference.telemetry.store.items())
    assert ours.keys() == theirs.keys()
    for key in ours:
        assert changes(ours[key]) == changes(theirs[key]), key
    assert health_records(shipped.sim.log) == health_records(reference.sim.log)
    return shipped, reference
