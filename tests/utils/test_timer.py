"""Tests for repro.utils.timer."""

from __future__ import annotations

import time

from repro.utils.timer import Timer


class TestTimer:
    def test_accumulates(self):
        t = Timer()
        with t:
            time.sleep(0.01)
        first = t.elapsed
        assert first > 0.0
        with t:
            time.sleep(0.01)
        assert t.elapsed > first

    def test_context_returns_self(self):
        t = Timer()
        with t as inner:
            assert inner is t

    def test_exception_still_records(self):
        t = Timer()
        try:
            with t:
                time.sleep(0.005)
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert t.elapsed > 0.0
