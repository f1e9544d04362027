"""Property-based tests for Partition's group split."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.sampling import split_into_groups
from tests.properties.strategies import points

SETTINGS = dict(max_examples=25, deadline=None)


class TestGroupSplitProperties:
    @given(X=points(min_rows=4, max_rows=60), seed=st.integers(0, 2**16),
           data=st.data())
    @settings(**SETTINGS)
    def test_groups_partition_rows(self, X, seed, data):
        m = data.draw(st.integers(1, X.shape[0]))
        groups = list(split_into_groups(X, m, seed=seed))
        assert sum(g.shape[0] for g in groups) == X.shape[0]
        stacked = np.vstack(groups)
        np.testing.assert_allclose(
            np.sort(stacked.ravel()), np.sort(X.ravel())
        )

    @given(X=points(min_rows=4, max_rows=60), seed=st.integers(0, 2**16),
           data=st.data())
    @settings(**SETTINGS)
    def test_group_sizes_balanced(self, X, seed, data):
        m = data.draw(st.integers(1, X.shape[0]))
        sizes = [g.shape[0] for g in split_into_groups(X, m, seed=seed)]
        assert max(sizes) - min(sizes) <= 1
