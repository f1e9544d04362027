"""Property-based tests: MapReduce results must equal sequential results.

The deep invariant of Section 3.5 is that distributing the computation
changes *nothing* about the values: partial potentials sum to the exact
potential, weight vectors sum to the exact counts, and one distributed
Lloyd round equals one sequential Lloyd round — for any split count.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.costs import potential
from repro.linalg.centroids import cluster_sizes
from repro.linalg.distances import assign_labels, pairwise_sq_dists
from repro.mapreduce.jobs.cost_job import PHI_KEY, make_cost_job
from repro.mapreduce.jobs.lloyd_job import collect_new_centers, make_lloyd_job
from repro.mapreduce.jobs.weight_job import WEIGHTS_KEY, make_weight_job
from repro.mapreduce.runtime import LocalMapReduceRuntime
from tests.properties.strategies import cost_atol, d2_atol, points_and_k

SETTINGS = dict(max_examples=25, deadline=None)


def has_assignment_ties(X, C) -> bool:
    """True when some point's nearest center is ambiguous at round-off.

    Whole-matrix and per-split assignments compute the GEMM expansion
    with different blockings, so their round-off differs by up to
    ``d2_atol``; where the best and second-best distances are closer
    than that, the argmin legitimately lands on different centers and
    exact label-derived quantities (weights, members, centroids) are not
    comparable. Such degenerate instances fall back to weaker checks.
    """
    if C.shape[0] < 2:
        return False
    d2 = np.sort(pairwise_sq_dists(X, C), axis=1)
    return bool((d2[:, 1] - d2[:, 0] <= d2_atol(X)).any())


class TestDistributionInvariance:
    @given(data=points_and_k(min_rows=2), n_splits=st.integers(1, 9))
    @settings(**SETTINGS)
    def test_cost_job_split_invariant(self, data, n_splits):
        X, k = data
        C = X[:k]
        rt = LocalMapReduceRuntime(X, n_splits=n_splits, seed=0)
        phi = rt.run_job(make_cost_job(C)).single(PHI_KEY)
        assert phi == pytest.approx(potential(X, C), rel=1e-7, abs=cost_atol(X))

    @given(data=points_and_k(min_rows=2), n_splits=st.integers(1, 9))
    @settings(**SETTINGS)
    def test_weight_job_split_invariant(self, data, n_splits):
        X, k = data
        C = X[:k]
        rt = LocalMapReduceRuntime(X, n_splits=n_splits, seed=0)
        weights = rt.run_job(make_weight_job(C)).single(WEIGHTS_KEY)
        # Total mass is conserved no matter how ties break.
        assert weights.sum() == pytest.approx(X.shape[0])
        if not has_assignment_ties(X, C):
            expected = cluster_sizes(assign_labels(X, C), k)
            np.testing.assert_allclose(weights, expected)

    @given(data=points_and_k(min_rows=2), n_splits=st.integers(1, 9))
    @settings(**SETTINGS)
    def test_lloyd_round_split_invariant(self, data, n_splits):
        X, k = data
        C = X[:k].copy()
        rt = LocalMapReduceRuntime(X, n_splits=n_splits, seed=0)
        out = rt.run_job(make_lloyd_job(C))
        new_centers, phi = collect_new_centers(out.output, C)
        if not has_assignment_ties(X, C):
            labels = assign_labels(X, C)
            for j in range(k):
                members = X[labels == j]
                if members.shape[0]:
                    np.testing.assert_allclose(
                        new_centers[j], members.mean(axis=0), rtol=1e-7,
                        atol=1e-7 * max(1.0, np.abs(X).max()),
                    )
        assert phi == pytest.approx(potential(X, C), rel=1e-7, abs=cost_atol(X))

    @given(
        data=points_and_k(min_rows=2),
        n_splits=st.integers(1, 9),
        workers=st.integers(2, 4),
    )
    @settings(**SETTINGS)
    def test_cost_job_worker_count_invariant(self, data, n_splits, workers):
        """Threaded map phase is bit-identical to serial, split for split."""
        X, k = data
        C = X[:k]
        serial = LocalMapReduceRuntime(X, n_splits=n_splits, seed=0, workers=1)
        with LocalMapReduceRuntime(
            X, n_splits=n_splits, seed=0, workers=workers
        ) as threaded:
            a = serial.run_job(make_cost_job(C))
            b = threaded.run_job(make_cost_job(C))
        assert a.single(PHI_KEY) == b.single(PHI_KEY)  # exact, not approx
        assert a.stats.shuffle_bytes == b.stats.shuffle_bytes
        assert a.stats.map_flops_per_split == b.stats.map_flops_per_split
        assert serial.simulated_seconds == threaded.simulated_seconds

    @given(
        data=points_and_k(min_rows=2),
        n_splits=st.integers(1, 9),
        workers=st.integers(2, 4),
    )
    @settings(**SETTINGS)
    def test_lloyd_job_worker_count_invariant(self, data, n_splits, workers):
        X, k = data
        C = X[:k].copy()
        with LocalMapReduceRuntime(
            X, n_splits=n_splits, seed=0, workers=1
        ) as serial, LocalMapReduceRuntime(
            X, n_splits=n_splits, seed=0, workers=workers
        ) as threaded:
            ca, pa = collect_new_centers(serial.run_job(make_lloyd_job(C)).output, C)
            cb, pb = collect_new_centers(threaded.run_job(make_lloyd_job(C)).output, C)
        np.testing.assert_array_equal(ca, cb)  # bitwise
        assert pa == pb
