"""Tests for the MapReduce k-means drivers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.costs import potential
from repro.mapreduce.cluster import ClusterModel
from repro.mapreduce.kmeans_mr import (
    mr_lloyd,
    mr_random_kmeans,
    mr_scalable_kmeans,
    naive_kmeanspp_flops,
)
from repro.mapreduce.runtime import LocalMapReduceRuntime


class TestMRLloyd:
    def test_converges_on_blobs(self, blobs):
        X, true_centers = blobs
        rt = LocalMapReduceRuntime(X, n_splits=4, seed=0)
        centers, phi, n_iter = mr_lloyd(rt, true_centers + 0.2, max_iter=20)
        assert phi == pytest.approx(potential(X, centers))
        assert n_iter < 20

    def test_matches_sequential_lloyd(self, blobs):
        from repro.core.lloyd import lloyd

        X, _ = blobs
        start = X[:5].copy()
        rt = LocalMapReduceRuntime(X, n_splits=4, seed=0)
        mr_centers, mr_phi, _ = mr_lloyd(rt, start, max_iter=50)
        seq = lloyd(X, start, max_iter=50, empty_policy="keep")
        assert mr_phi == pytest.approx(seq.cost, rel=1e-9)
        np.testing.assert_allclose(
            np.sort(mr_centers, axis=0), np.sort(seq.centers, axis=0), atol=1e-9
        )

    def test_respects_cap(self, blobs):
        X, _ = blobs
        rt = LocalMapReduceRuntime(X, n_splits=4, seed=0)
        _, _, n_iter = mr_lloyd(rt, X[:5], max_iter=3)
        assert n_iter <= 3


class TestMRScalableKMeans:
    def test_full_pipeline(self, blobs):
        X, _ = blobs
        report = mr_scalable_kmeans(X, 5, l=10.0, r=5, n_splits=4, seed=0)
        assert report.centers.shape == (5, 3)
        assert report.method == "k-means||"
        assert report.n_candidates >= 5
        assert report.final_cost <= report.seed_cost
        assert report.simulated_minutes > 0
        assert set(report.breakdown) == {"init", "weights", "recluster", "lloyd"}

    def test_quality_comparable_to_sequential(self, blobs):
        from repro.core.init_scalable import ScalableKMeans
        from repro.core.lloyd import lloyd

        X, _ = blobs
        report = mr_scalable_kmeans(X, 5, l=10.0, r=5, n_splits=4, seed=1)
        seq_init = ScalableKMeans(oversampling=10.0, n_rounds=5).run(X, 5, seed=1)
        seq = lloyd(X, seq_init.centers)
        # Both find the 5-blob structure.
        assert report.final_cost < 3 * seq.cost

    def test_job_count_accounting(self, blobs):
        X, _ = blobs
        report = mr_scalable_kmeans(X, 5, l=10.0, r=3, n_splits=4, seed=0,
                                    lloyd_max_iter=5)
        # 1 sample + (3 cost + <=3 sample) + final fold + weights + <=5 lloyd
        assert report.n_jobs <= 1 + 6 + 1 + 1 + 5
        assert report.n_jobs >= 8

    def test_job_count_leaves_out_the_sequential_charge(self):
        # r = 5 rounds that each sample, then 10 Lloyd jobs: 1 sample +
        # 6 cost + 5 sample + 1 weights + 10 Lloyd = 23 jobs.  The
        # runtime also logs the driver's reclustering, which is no job.
        X = np.random.default_rng(0).uniform(size=(2000, 3))
        report = mr_scalable_kmeans(X, 16, l=32.0, r=5, n_splits=4, seed=0,
                                    lloyd_max_iter=10)
        assert report.lloyd_iters == 10
        assert report.n_jobs == 23
        assert "jobs=23 " in report.summary()
        random = mr_random_kmeans(X, 16, n_splits=4, seed=0, lloyd_max_iter=10)
        assert (random.lloyd_iters, random.n_jobs) == (10, 11)

    def test_summary_string(self, blobs):
        X, _ = blobs
        report = mr_scalable_kmeans(X, 5, l=10.0, r=2, n_splits=4, seed=0)
        text = report.summary()
        assert "k-means||" in text and "simulated" in text


class TestMRRandomKMeans:
    def test_pipeline(self, blobs):
        X, _ = blobs
        report = mr_random_kmeans(X, 5, n_splits=4, seed=0)
        assert report.method == "random"
        assert report.centers.shape == (5, 3)
        assert report.lloyd_iters <= 20
        assert report.final_cost <= report.seed_cost

    def test_custom_cluster_model_changes_time(self, blobs):
        X, _ = blobs
        fast = mr_random_kmeans(
            X, 5, n_splits=4, seed=0,
            cluster=ClusterModel(job_overhead_s=1.0),
        )
        slow = mr_random_kmeans(
            X, 5, n_splits=4, seed=0,
            cluster=ClusterModel(job_overhead_s=1000.0),
        )
        assert slow.simulated_minutes > fast.simulated_minutes


class TestParallelAndOutOfCoreInvariance:
    """Worker count and split-source kind must not change a single bit.

    This is the MR-layer extension of the PR-1 engine worker-invariance
    property: per-(job, split) RNGs are pre-spawned before dispatch and
    results are folded in split order, so the pipeline output — centers,
    costs, counters, simulated minutes — is a pure function of
    (data, seed, n_splits).
    """

    def _assert_reports_identical(self, a, b):
        np.testing.assert_array_equal(a.centers, b.centers)
        assert a.seed_cost == b.seed_cost
        assert a.final_cost == b.final_cost
        assert a.lloyd_iters == b.lloyd_iters
        assert a.n_candidates == b.n_candidates
        assert a.n_jobs == b.n_jobs
        assert a.simulated_minutes == b.simulated_minutes
        assert a.breakdown == b.breakdown

    def test_scalable_worker_count_invariant(self, blobs):
        X, _ = blobs
        serial = mr_scalable_kmeans(X, 5, l=10.0, r=3, n_splits=6, seed=0, workers=1)
        threaded = mr_scalable_kmeans(X, 5, l=10.0, r=3, n_splits=6, seed=0, workers=4)
        self._assert_reports_identical(serial, threaded)

    def test_random_worker_count_invariant(self, blobs):
        X, _ = blobs
        serial = mr_random_kmeans(X, 5, n_splits=6, seed=2, workers=1)
        threaded = mr_random_kmeans(X, 5, n_splits=6, seed=2, workers=4)
        self._assert_reports_identical(serial, threaded)

    def test_mmap_source_matches_in_memory(self, blobs, tmp_path):
        X, _ = blobs
        path = tmp_path / "blobs.npy"
        np.save(path, X)
        in_memory = mr_scalable_kmeans(X, 5, l=10.0, r=3, n_splits=6, seed=1, workers=1)
        mmapped = mr_scalable_kmeans(path, 5, l=10.0, r=3, n_splits=6, seed=1, workers=1)
        self._assert_reports_identical(in_memory, mmapped)

    def test_mmap_threaded_matches_in_memory_serial(self, blobs, tmp_path):
        X, _ = blobs
        path = tmp_path / "blobs.npy"
        np.save(path, X)
        baseline = mr_scalable_kmeans(X, 5, l=10.0, r=3, n_splits=6, seed=4, workers=1)
        crossed = mr_scalable_kmeans(
            str(path), 5, l=10.0, r=3, n_splits=6, seed=4, workers=4
        )
        self._assert_reports_identical(baseline, crossed)

    def test_npz_dataset_path_accepted(self, blobs, tmp_path):
        from repro.data.dataset import Dataset
        from repro.data.io import save_dataset

        X, _ = blobs
        npz = save_dataset(Dataset(name="blobs", X=X), tmp_path / "blobs")
        baseline = mr_random_kmeans(X, 5, n_splits=4, seed=0, workers=1)
        from_npz = mr_random_kmeans(npz, 5, n_splits=4, seed=0, workers=2)
        self._assert_reports_identical(baseline, from_npz)

    def test_workers_recorded_in_params(self, blobs):
        X, _ = blobs
        report = mr_scalable_kmeans(X, 5, l=10.0, r=2, n_splits=4, seed=0, workers=3)
        assert report.params["workers"] == 3


class TestNaiveKMeansPPFlops:
    def test_quadratic_in_k(self):
        assert naive_kmeanspp_flops(100, 20, 5) > 3.5 * naive_kmeanspp_flops(100, 10, 5)

    def test_linear_in_m(self):
        assert naive_kmeanspp_flops(200, 10, 5) == pytest.approx(
            2 * naive_kmeanspp_flops(100, 10, 5)
        )
