"""Tests for views (the pure-data part of repro.isis)."""

import pytest

from repro.isis import View
from repro.netsim import Address


class TestView:
    def _view(self):
        return View(3, (Address("h1", "p"), Address("h2", "p"), Address("h3", "p")))

    def test_coordinator_is_oldest(self):
        assert self._view().coordinator == Address("h1", "p")

    def test_rank(self):
        view = self._view()
        assert view.rank(Address("h1", "p")) == 0
        assert view.rank(Address("h3", "p")) == 2
        with pytest.raises(ValueError):
            view.rank(Address("h9", "p"))

    def test_contains_len(self):
        view = self._view()
        assert Address("h2", "p") in view
        assert Address("h9", "p") not in view
        assert len(view) == 3

    def test_without(self):
        view = self._view()
        assert view.without(Address("h2", "p")) == (Address("h1", "p"), Address("h3", "p"))

    def test_majority(self):
        assert self._view().majority() == 2
        assert View(1, (Address("a", "p"),)).majority() == 1
        four = View(1, tuple(Address(f"h{i}", "p") for i in range(4)))
        assert four.majority() == 3
