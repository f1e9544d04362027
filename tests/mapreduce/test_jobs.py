"""Tests for the concrete k-means MapReduce jobs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.costs import potential
from repro.exceptions import MapReduceError
from repro.linalg.centroids import cluster_sizes
from repro.linalg.distances import assign_labels
from repro.mapreduce.jobs.cost_job import PHI_KEY, make_cost_job
from repro.mapreduce.jobs.lloyd_job import (
    PHI_KEY as LLOYD_PHI,
    collect_new_centers,
    make_lloyd_job,
)
from repro.mapreduce.jobs.random_init_job import SAMPLE_KEY, make_uniform_sample_job
from repro.mapreduce.jobs.sample_job import CANDIDATES_KEY, make_sample_job
from repro.mapreduce.jobs.weight_job import (
    WEIGHTS_KEY,
    make_fold_weight_job,
    make_weight_job,
)
from repro.mapreduce.runtime import LocalMapReduceRuntime


@pytest.fixture
def runtime(blobs):
    X, _ = blobs
    return LocalMapReduceRuntime(X, n_splits=5, seed=0)


class TestCostJob:
    def test_phi_matches_sequential(self, runtime, blobs):
        X, _ = blobs
        centers = X[:3]
        phi = runtime.run_job(make_cost_job(centers)).single(PHI_KEY)
        assert phi == pytest.approx(potential(X, centers))

    def test_incremental_fold_matches_batch(self, runtime, blobs):
        X, _ = blobs
        runtime.run_job(make_cost_job(X[:2], offset=0))
        phi = runtime.run_job(make_cost_job(X[2:5], offset=2)).single(PHI_KEY)
        assert phi == pytest.approx(potential(X, X[:5]))

    def test_reset_recomputes(self, runtime, blobs):
        X, _ = blobs
        runtime.run_job(make_cost_job(X[:5]))
        phi = runtime.run_job(make_cost_job(X[:1], reset=True)).single(PHI_KEY)
        assert phi == pytest.approx(potential(X, X[:1]))

    def test_argmin_cache_consistent(self, runtime, blobs):
        X, _ = blobs
        runtime.run_job(make_cost_job(X[:2], offset=0))
        runtime.run_job(make_cost_job(X[2:6], offset=2))
        cached = np.concatenate(
            [state["nearest"] for state in runtime.split_states]
        )
        np.testing.assert_array_equal(cached, assign_labels(X, X[:6]))


class TestSampleJob:
    def test_requires_cost_job_first(self, runtime):
        with pytest.raises(MapReduceError, match="cost job"):
            runtime.run_job(make_sample_job(5.0, 100.0))

    def test_samples_expected_count(self, blobs):
        X, _ = blobs
        counts = []
        for seed in range(10):
            rt = LocalMapReduceRuntime(X, n_splits=5, seed=seed)
            phi = rt.run_job(make_cost_job(X[:1])).single(PHI_KEY)
            out = rt.run_job(make_sample_job(10.0, phi)).output.get(CANDIDATES_KEY)
            counts.append(out[0].shape[0] if out else 0)
        # E[count] = l = 10 (minus clipping); wide tolerance.
        assert 4 <= np.mean(counts) <= 16

    def test_zero_phi_samples_nothing(self, blobs):
        X, _ = blobs
        rt = LocalMapReduceRuntime(X, n_splits=5, seed=0)
        rt.run_job(make_cost_job(X))  # all points are centers -> phi = 0
        out = rt.run_job(make_sample_job(10.0, 0.0)).output.get(CANDIDATES_KEY)
        assert out is None or out[0] is None

    def test_sampled_rows_are_data(self, blobs):
        X, _ = blobs
        rt = LocalMapReduceRuntime(X, n_splits=5, seed=1)
        phi = rt.run_job(make_cost_job(X[:1])).single(PHI_KEY)
        out = rt.run_job(make_sample_job(8.0, phi)).output.get(CANDIDATES_KEY)
        for row in out[0]:
            assert (np.abs(X - row).sum(axis=1) < 1e-12).any()

    def test_invalid_params(self):
        with pytest.raises(MapReduceError):
            make_sample_job(0.0, 1.0).mapper_factory()
        with pytest.raises(MapReduceError):
            make_sample_job(1.0, -1.0).mapper_factory()


class TestWeightJob:
    def test_weights_match_sequential(self, runtime, blobs):
        X, _ = blobs
        candidates = X[:7]
        weights = runtime.run_job(make_weight_job(candidates)).single(WEIGHTS_KEY)
        expected = cluster_sizes(assign_labels(X, candidates), 7)
        np.testing.assert_allclose(weights, expected)

    def test_weights_sum_to_n(self, runtime, blobs):
        X, _ = blobs
        weights = runtime.run_job(make_weight_job(X[:4])).single(WEIGHTS_KEY)
        assert weights.sum() == pytest.approx(X.shape[0])

    # The "cached variant" is Step 7 from the cost jobs' cached argmin
    # column, counted by the job that folds the last round's candidates.
    def test_cached_variant_matches(self, blobs):
        X, _ = blobs
        rt = LocalMapReduceRuntime(X, n_splits=5, seed=0)
        rt.run_job(make_cost_job(X[:2], offset=0))
        result = rt.run_job(make_fold_weight_job(X[2:4], offset=2, n_candidates=4))
        cached = result.single(WEIGHTS_KEY)
        direct = rt.run_job(make_weight_job(X[:4])).single(WEIGHTS_KEY)
        np.testing.assert_array_equal(cached, direct)
        # The fold is a cost job's fold: the same profile and phi.
        assert result.single(PHI_KEY) == pytest.approx(potential(X, X[:4]))
        cached_nearest = np.concatenate([s["nearest"] for s in rt.split_states])
        np.testing.assert_array_equal(cached_nearest, assign_labels(X, X[:4]))

    def test_cached_variant_requires_fold(self, blobs):
        X, _ = blobs
        rt = LocalMapReduceRuntime(X, n_splits=5, seed=0)
        empty = np.empty((0, X.shape[1]))
        with pytest.raises(MapReduceError, match="cost jobs"):
            rt.run_job(make_fold_weight_job(empty, offset=0, n_candidates=3))

    def test_cached_variant_rejects_stale_count(self, blobs):
        X, _ = blobs
        rt = LocalMapReduceRuntime(X, n_splits=5, seed=0)
        rt.run_job(make_cost_job(X[:2], offset=0))
        with pytest.raises(MapReduceError, match="outside"):
            rt.run_job(make_fold_weight_job(X[2:4], offset=2, n_candidates=2))


class TestLloydJob:
    def test_one_round_matches_sequential(self, runtime, blobs):
        X, _ = blobs
        centers = X[:5].copy()
        result = runtime.run_job(make_lloyd_job(centers))
        new_centers, phi = collect_new_centers(result.output, centers)
        labels = assign_labels(X, centers)
        for j in range(5):
            members = X[labels == j]
            if members.shape[0]:
                np.testing.assert_allclose(new_centers[j], members.mean(axis=0),
                                           atol=1e-9)
        assert phi == pytest.approx(potential(X, centers))

    def test_empty_cluster_keeps_previous(self, blobs):
        X, _ = blobs
        far = np.vstack([X[:2], [[1e6, 1e6, 1e6]]])
        rt = LocalMapReduceRuntime(X, n_splits=5, seed=0)
        result = rt.run_job(make_lloyd_job(far))
        new_centers, _ = collect_new_centers(result.output, far)
        np.testing.assert_array_equal(new_centers[2], far[2])


class TestUniformSampleJob:
    def test_returns_k_rows(self, runtime, blobs):
        X, _ = blobs
        rows = runtime.run_job(make_uniform_sample_job(7)).single(SAMPLE_KEY)
        assert rows.shape == (7, 3)

    def test_rows_are_distinct_data_points(self, runtime, blobs):
        X, _ = blobs
        rows = runtime.run_job(make_uniform_sample_job(10)).single(SAMPLE_KEY)
        assert np.unique(rows, axis=0).shape[0] == 10
        for row in rows:
            assert (np.abs(X - row).sum(axis=1) < 1e-12).any()

    def test_approximately_uniform_over_splits(self, blobs):
        # Points come from all splits, not just the first.
        X, _ = blobs
        seen_last_split = 0
        for seed in range(20):
            rt = LocalMapReduceRuntime(X, n_splits=5, seed=seed)
            rows = rt.run_job(make_uniform_sample_job(5)).single(SAMPLE_KEY)
            last = rt.splits[-1]
            for row in rows:
                if (np.abs(last - row).sum(axis=1) < 1e-12).any():
                    seen_last_split += 1
                    break
        assert seen_last_split >= 10  # ~always at least one of 5 from last split

    def test_k_one(self, runtime):
        rows = runtime.run_job(make_uniform_sample_job(1)).single(SAMPLE_KEY)
        assert rows.shape[0] == 1

    def test_bad_k(self):
        with pytest.raises(MapReduceError):
            make_uniform_sample_job(0).mapper_factory()
