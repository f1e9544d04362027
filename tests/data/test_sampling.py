"""Tests for repro.data.sampling."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.sampling import split_into_groups
from repro.exceptions import ValidationError


class TestSplitIntoGroups:
    def test_partition_covers_everything(self, rng):
        X = rng.normal(size=(37, 2))
        groups = list(split_into_groups(X, 5, seed=0))
        assert sum(g.shape[0] for g in groups) == 37
        stacked = np.vstack(groups)
        np.testing.assert_allclose(
            np.sort(stacked, axis=0), np.sort(X, axis=0)
        )

    def test_near_equal_sizes(self, rng):
        X = rng.normal(size=(100, 2))
        sizes = [g.shape[0] for g in split_into_groups(X, 7, seed=0)]
        assert max(sizes) - min(sizes) <= 1

    def test_no_shuffle_preserves_order(self):
        X = np.arange(10, dtype=float).reshape(10, 1)
        groups = list(split_into_groups(X, 2, shuffle=False))
        np.testing.assert_array_equal(groups[0].ravel(), np.arange(5))

    def test_more_groups_than_points_rejected(self, rng):
        with pytest.raises(ValidationError, match="exceeds"):
            list(split_into_groups(rng.normal(size=(3, 1)), 4))

    def test_zero_groups_rejected(self, rng):
        with pytest.raises(ValidationError):
            list(split_into_groups(rng.normal(size=(3, 1)), 0))
