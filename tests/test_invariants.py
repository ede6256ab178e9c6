"""Direct unit tests for the recovery invariants in repro.faults.invariants."""

from types import SimpleNamespace

import pytest

from repro.faults.invariants import (
    leadership_transfer_times,
    surviving_leader_is_oldest,
    views_converged,
)
from repro.util.eventlog import EventLog


class TestLeadershipTransferTimes:
    def test_pairs_takeover_with_latest_prior_crash(self):
        log = EventLog()
        log.emit(2.0, "fault.crash", "ws0")
        log.emit(5.0, "fault.crash", "ws1")
        log.emit(7.5, "isis.takeover", "ws2/sched", group="sched")
        assert leadership_transfer_times(log, "sched") == [2.5]

    def test_multiple_takeovers(self):
        log = EventLog()
        log.emit(1.0, "fault.crash", "ws0")
        log.emit(2.0, "isis.takeover", "ws1/sched", group="sched")
        log.emit(10.0, "fault.crash", "ws1")
        log.emit(10.4, "isis.takeover", "ws2/sched", group="sched")
        assert leadership_transfer_times(log, "sched") == pytest.approx([1.0, 0.4])

    def test_other_groups_ignored(self):
        log = EventLog()
        log.emit(1.0, "fault.crash", "ws0")
        log.emit(2.0, "isis.takeover", "ws1/other", group="other")
        assert leadership_transfer_times(log, "sched") == []

    def test_takeover_without_prior_crash_ignored(self):
        log = EventLog()
        log.emit(1.0, "isis.takeover", "ws1/sched", group="sched")
        log.emit(2.0, "fault.crash", "ws0")
        assert leadership_transfer_times(log, "sched") == []

    def test_empty_log(self):
        assert leadership_transfer_times(EventLog(), "sched") == []


class TestSurvivingLeaderIsOldest:
    MEMBERS = ["ws0/sched", "ws1/sched", "ws2/sched"]

    def test_oldest_survivor_leads(self):
        assert surviving_leader_is_oldest(self.MEMBERS, "ws1/sched", {"ws0"})

    def test_younger_survivor_leading_violates(self):
        assert not surviving_leader_is_oldest(self.MEMBERS, "ws2/sched", {"ws0"})

    def test_no_crash_keeps_original_leader(self):
        assert surviving_leader_is_oldest(self.MEMBERS, "ws0/sched", set())

    def test_no_survivors_is_violation(self):
        assert not surviving_leader_is_oldest(
            self.MEMBERS, "ws0/sched", {"ws0", "ws1", "ws2"}
        )


def _member(joined, view_id=1, members=("a", "b")):
    return SimpleNamespace(
        joined=joined, view=SimpleNamespace(view_id=view_id, members=tuple(members))
    )


class TestViewsConverged:
    def test_agreeing_members_converge(self):
        assert views_converged([_member(True), _member(True)])

    def test_view_id_disagreement(self):
        assert not views_converged([_member(True, view_id=1), _member(True, view_id=2)])

    def test_membership_disagreement(self):
        assert not views_converged(
            [_member(True, members=("a",)), _member(True, members=("a", "b"))]
        )

    def test_unjoined_members_ignored(self):
        assert views_converged([_member(True), _member(False, view_id=99)])

    def test_no_live_members_is_vacuously_converged(self):
        assert views_converged([_member(False)])
        assert views_converged([])
