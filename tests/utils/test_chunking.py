"""Tests for repro.utils.chunking."""

from __future__ import annotations

import pytest

from repro.exceptions import ValidationError
from repro.utils.chunking import chunk_slices, rows_per_chunk


class TestRowsPerChunk:
    def test_basic_division(self):
        assert rows_per_chunk(1024, 4096) == 4

    def test_at_least_one(self):
        assert rows_per_chunk(10**12, 1024) == 1

    def test_zero_scratch_rejected(self):
        with pytest.raises(ValidationError):
            rows_per_chunk(0)

    def test_zero_budget_rejected(self):
        with pytest.raises(ValidationError):
            rows_per_chunk(8, 0)


class TestChunkSlices:
    def test_exact_cover(self):
        slices = list(chunk_slices(10, 5))
        assert [(s.start, s.stop) for s in slices] == [(0, 5), (5, 10)]

    def test_ragged_tail(self):
        slices = list(chunk_slices(7, 3))
        assert [(s.start, s.stop) for s in slices] == [(0, 3), (3, 6), (6, 7)]

    def test_empty_input(self):
        assert list(chunk_slices(0, 4)) == []

    def test_chunk_larger_than_n(self):
        slices = list(chunk_slices(3, 100))
        assert [(s.start, s.stop) for s in slices] == [(0, 3)]

    def test_negative_n_rejected(self):
        with pytest.raises(ValidationError):
            list(chunk_slices(-1, 2))

    def test_zero_chunk_rejected(self):
        with pytest.raises(ValidationError):
            list(chunk_slices(5, 0))

    def test_full_coverage_no_overlap(self):
        covered = []
        for s in chunk_slices(23, 4):
            covered.extend(range(s.start, s.stop))
        assert covered == list(range(23))
