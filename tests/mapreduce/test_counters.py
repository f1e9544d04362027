"""Tests for repro.mapreduce.counters."""

from __future__ import annotations

from repro.mapreduce.counters import Counters


class TestCounters:
    def test_increment_and_value(self):
        c = Counters()
        c.increment("sample", "selected", 5)
        c.increment("sample", "selected", 2)
        assert c.value("sample", "selected") == 7

    def test_missing_is_zero(self):
        assert Counters().value("nope", "nothing") == 0

    def test_negative_increment(self):
        c = Counters()
        c.increment("g", "n", -3)
        assert c.value("g", "n") == -3

    def test_merge(self):
        a, b = Counters(), Counters()
        a.increment("g", "x", 1)
        b.increment("g", "x", 2)
        b.increment("h", "y", 5)
        a.merge(b)
        assert a.value("g", "x") == 3
        assert a.value("h", "y") == 5

    def test_as_dict_is_snapshot(self):
        c = Counters()
        c.increment("g", "x")
        snap = c.as_dict()
        c.increment("g", "x")
        assert snap["g"]["x"] == 1

    def test_groups(self):
        c = Counters()
        c.increment("a", "x")
        c.increment("b", "y")
        assert sorted(c.groups()) == ["a", "b"]

    def test_repr(self):
        c = Counters()
        c.increment("g", "x")
        assert "1 groups" in repr(c)

    def test_pickle_round_trip(self):
        # Counters cross process boundaries under the process backend.
        import pickle

        from repro.mapreduce.counters import Counters

        c = Counters()
        c.increment("map", "records", 41)
        c.increment("map", "splits")
        c.increment("sample", "selected", 7)
        clone = pickle.loads(pickle.dumps(c))
        assert clone.as_dict() == c.as_dict()
        # The clone is fully functional (defaultdicts rebuilt).
        clone.increment("map", "records")
        assert clone.value("map", "records") == 42
        other = Counters()
        other.increment("new", "group", 3)
        clone.merge(other)
        assert clone.value("new", "group") == 3
