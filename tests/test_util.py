"""Tests for repro.util: ids, rng streams, event log, errors."""

import pickle

import pytest
from hypothesis import given, strategies as st

from repro.util import (
    AllocationError,
    EventLog,
    IdGenerator,
    LogRecord,
    RngStreams,
    ScriptError,
    VCEError,
)


class TestIdGenerator:
    def test_sequential_per_prefix(self):
        gen = IdGenerator()
        assert gen.next("task") == "task-0"
        assert gen.next("task") == "task-1"
        assert gen.next("chan") == "chan-0"

    def test_next_int(self):
        gen = IdGenerator()
        assert gen.next_int("x") == 0
        assert gen.next_int("x") == 1

    def test_reset(self):
        gen = IdGenerator()
        gen.next("a")
        gen.reset()
        assert gen.next("a") == "a-0"

    def test_independent_generators(self):
        a, b = IdGenerator(), IdGenerator()
        a.next("t")
        assert b.next("t") == "t-0"


class TestRngStreams:
    def test_same_name_same_stream(self):
        streams = RngStreams(7)
        assert streams.stream("x") is streams.stream("x")

    def test_reproducible_across_instances(self):
        a = RngStreams(7).stream("net").random()
        b = RngStreams(7).stream("net").random()
        assert a == b

    def test_different_names_independent(self):
        streams = RngStreams(7)
        xs = [streams.stream("a").random() for _ in range(5)]
        ys = [streams.stream("b").random() for _ in range(5)]
        assert xs != ys

    def test_different_seeds_differ(self):
        assert RngStreams(1).stream("s").random() != RngStreams(2).stream("s").random()

    def test_spawn_independent_of_parent(self):
        parent = RngStreams(3)
        child = parent.spawn("sub")
        assert parent.stream("s").random() != child.stream("s").random()

    @given(st.integers(min_value=0, max_value=2**31), st.text(min_size=1, max_size=20))
    def test_derived_seed_stable(self, seed, name):
        assert RngStreams(seed)._derive_seed(name) == RngStreams(seed)._derive_seed(name)


class TestEventLog:
    def test_emit_and_query(self):
        log = EventLog()
        log.emit(0.0, "sched.bid", "d1", load=0.5)
        log.emit(1.0, "sched.alloc", "leader", n=3)
        log.emit(2.0, "task.done", "t1")
        assert len(log) == 3
        assert log.count("sched.bid") == 1
        assert [r.category for r in log.records(category="sched.")] == [
            "sched.bid",
            "sched.alloc",
        ]

    def test_time_window(self):
        log = EventLog()
        for t in range(5):
            log.emit(float(t), "tick", "clock")
        assert len(log.records(since=1.0, until=3.0)) == 3

    def test_source_filter_and_predicate(self):
        log = EventLog()
        log.emit(0.0, "x", "a", v=1)
        log.emit(0.0, "x", "b", v=2)
        assert len(log.records(source="a")) == 1
        assert len(log.records(predicate=lambda r: r.get("v", 0) > 1)) == 1

    def test_first_last(self):
        log = EventLog()
        assert log.first("x") is None
        log.emit(0.0, "x", "s", i=0)
        log.emit(1.0, "x", "s", i=1)
        assert log.first("x").get("i") == 0
        assert log.last("x").get("i") == 1

    def test_counters_only_mode_round_trip(self):
        log = EventLog()
        log.set_bounded(0)
        log.emit(0.0, "x", "s")
        assert len(log) == 0
        log.set_unbounded()
        log.emit(0.0, "x", "s")
        assert len(log) == 1

    def test_deprecated_disable_is_gone(self):
        assert not hasattr(EventLog, "disable")
        assert not hasattr(EventLog, "enable")

    def test_counters_only_log_keeps_exact_counts(self):
        log = EventLog()
        log.emit(0.0, "x", "s", i=0)
        log.set_bounded(0)
        log.emit(1.0, "x", "s", i=1)
        log.emit(2.0, "y", "s")
        assert len(log) == 0  # no records retained...
        assert log.count("x") == 2  # ...but counters stay exact
        assert log.first("x").get("i") == 0
        assert log.last("x").get("i") == 1
        assert log.category_counts() == {"x": 2, "y": 1}

    def test_observers_see_records_in_every_mode(self):
        log = EventLog()
        seen: list[tuple[float, str]] = []
        observer = lambda r: seen.append((r.time, r.category))  # noqa: E731
        log.add_observer(observer)
        log.add_observer(observer)  # idempotent
        log.emit(0.0, "x", "s")
        log.set_bounded(0)  # counters-only: still observed
        log.emit(1.0, "y", "s")
        log.suppress("z")
        log.emit(2.0, "z", "s")  # suppressed: never observed
        assert seen == [(0.0, "x"), (1.0, "y")]
        log.remove_observer(observer)
        log.remove_observer(observer)  # no-op second time
        log.emit(3.0, "y", "s")
        assert len(seen) == 2

    def test_suppressed_categories_are_counted_not_stored(self):
        log = EventLog()
        log.emit(0.0, "chat.hb", "s", n=0)
        log.suppress("chat.")
        log.emit(1.0, "chat.hb", "s", n=1)
        log.emit(1.5, "chat.new", "s")
        hb = log.category("chat.hb")
        assert not hb.stored and log.category("other").stored
        assert not log.category("chat.later").stored  # declared while suppressed
        assert log.count("chat.hb") == 2 and log.count("chat.") == 3
        assert log.last("chat.hb").get("n") == 0  # the last one stored
        assert log.first("chat.new") is None and log.records("chat.new") == []
        assert [r.get("n") for r in log.records("chat.")] == [0]
        log.unsuppress()
        assert hb.stored
        log.emit(2.0, "chat.new", "s")
        assert log.count("chat.new") == 2 and log.first("chat.new").time == 2.0
        assert log.category_counts() == {"chat.hb": 2, "chat.new": 2}

    def test_append_keeps_the_values_not_the_dict(self):
        log = EventLog()
        payload = {"k": [1, 2], "n": 1}
        log.append(3.0, "x", "s", payload)
        record = log.last("x")
        assert record.data == payload and record.data is not payload
        assert list(record.data) == ["k", "n"]  # the emitter's key order
        assert record.get("k") is payload["k"] and record.get("missing", 7) == 7
        assert record == LogRecord(3.0, "x", "s", {"k": [1, 2], "n": 1})
        # equality is the payload dict's: key order does not matter
        assert record == LogRecord(3.0, "x", "s", {"n": 1, "k": [1, 2]})
        assert record != LogRecord(3.0, "x", "s", {"n": 2, "k": [1, 2]})
        assert LogRecord(0.0, "y", "s").data == {}
        with pytest.raises(AttributeError):
            record.time = 4.0

    def test_handle_emit_stores_the_dict_record(self):
        log = EventLog()
        send = log.category("chan.send", ("channel", "to", "size", "trace_id"))
        assert log.category("chan.send", ("channel", "to", "size", "trace_id")) is send
        with pytest.raises(ValueError):
            log.category("chan.send", ("channel",))
        log.write(send, 1.0, "h/p", ("c", "3", 64, "t1"))
        log.write(send, 2.0, "h/p", ("c", "4", 64))  # an untraced send
        log.emit(3.0, "chan.send", "h/p", channel="c", to="5", size=8)
        full, short, keyword = log.records("chan.send")
        assert full == LogRecord(1.0, "chan.send", "h/p",
                                 {"channel": "c", "to": "3", "size": 64, "trace_id": "t1"})
        assert short.data == {"channel": "c", "to": "4", "size": 64}
        assert short.get("trace_id") is None and short.fields is keyword.fields
        assert list(full.data) == ["channel", "to", "size", "trace_id"]
        assert log.count("chan.send") == 3 and send.count == 3
        assert pickle.loads(pickle.dumps(full)) == full
        assert repr(full).startswith("LogRecord(time=1.0, category='chan.send'")
        with pytest.raises(TypeError):
            hash(full)  # a record was a dict payload's tuple: unhashable

    def test_clear_keeps_handles(self):
        log = EventLog()
        handle = log.category("x", ("i",))
        log.write(handle, 0.0, "s", (0,))
        log.clear()
        assert log.count("x") == 0 and log.category_counts() == {}
        log.write(handle, 1.0, "s", (1,))
        assert log.count("x") == 1 and log.first("x").get("i") == 1

    def test_clear(self):
        log = EventLog()
        log.emit(0.0, "x", "s")
        log.clear()
        assert len(log) == 0
        assert log.count("x") == 0
        assert log.first("x") is None

    def test_bounded_ring_keeps_last_n(self):
        log = EventLog()
        for i in range(3):
            log.emit(float(i), "x", "s", i=i)
        log.set_bounded(4)  # existing records seed the ring
        for i in range(3, 8):
            log.emit(float(i), "x", "s", i=i)
        assert log.bounded and log.capacity == 4
        assert [r.get("i") for r in log] == [4, 5, 6, 7]
        assert log.count("x") == 8  # exact despite eviction
        assert log.first("x").get("i") == 0
        assert log.last("x").get("i") == 7

    def test_bounded_category_query_sees_ring_only(self):
        log = EventLog(capacity=2)
        log.emit(0.0, "a.x", "s")
        log.emit(1.0, "a.y", "s")
        log.emit(2.0, "b.z", "s")
        assert [r.category for r in log.records(category="a.")] == ["a.y"]
        assert log.count("a.") == 2  # counters still see everything

    def test_set_unbounded_rebuilds_index(self):
        log = EventLog(capacity=10)
        log.emit(0.0, "a", "s")
        log.emit(1.0, "b", "s")
        log.set_unbounded()
        log.emit(2.0, "a", "s")
        assert not log.bounded and log.capacity is None
        assert [r.time for r in log.records(category="a")] == [0.0, 2.0]

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            EventLog().set_bounded(-1)

    def test_prefix_index_interleaved_order(self):
        # prefix queries merge per-category position lists back into
        # emission order
        log = EventLog()
        for i, cat in enumerate(["s.a", "s.b", "t.c", "s.a", "s.b"]):
            log.emit(float(i), cat, "src", i=i)
        got = [r.get("i") for r in log.records(category="s.")]
        assert got == [0, 1, 3, 4]
        assert log.count("s.") == 4
        assert log.first("s.").get("i") == 0
        assert log.last("s.").get("i") == 4

    def test_index_matches_full_scan(self):
        log = EventLog()
        for i in range(200):
            log.emit(float(i), f"cat{i % 7}", "s", i=i)
        for cat in ("cat0", "cat3"):
            indexed = log.records(category=cat)
            scanned = [r for r in log if r.category == cat]
            assert indexed == scanned
            assert log.count(cat) == len(scanned)


class TestErrors:
    def test_hierarchy(self):
        assert issubclass(AllocationError, VCEError)
        assert issubclass(ScriptError, VCEError)

    def test_allocation_error_fields(self):
        err = AllocationError("too few", requested=5, available=2)
        assert err.requested == 5 and err.available == 2

    def test_script_error_location(self):
        err = ScriptError("bad token", line=3, column=7)
        assert "line 3" in str(err) and err.line == 3

    def test_script_error_no_location(self):
        assert str(ScriptError("oops")) == "oops"
