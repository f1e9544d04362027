"""End-to-end integration tests across subsystems."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import KMeans, potential
from repro.baselines import PartitionInit
from repro.data import make_gauss_mixture, make_kddcup, make_spambase
from repro.mapreduce import mr_random_kmeans, mr_scalable_kmeans


class TestFullPipelinesOnGaussMixture:
    @pytest.fixture(scope="class")
    def dataset(self):
        return make_gauss_mixture(seed=0, n=3000, k=20, R=100.0)

    def test_all_inits_land_near_reference(self, dataset):
        # Single-seed D^2 seedings occasionally double-cover one blob, so
        # allow a one-lost-cluster factor over the generative reference.
        ref = dataset.reference_cost()
        for init in ("k-means||", "k-means++"):
            model = KMeans(n_clusters=20, init=init, n_init=3, seed=1).fit(dataset.X)
            assert model.inertia_ < 4 * ref, init

    def test_scalable_beats_random_final(self, dataset):
        random_finals = [
            KMeans(n_clusters=20, init="random", max_iter=50, seed=s)
            .fit(dataset.X).inertia_
            for s in range(3)
        ]
        scalable_finals = [
            KMeans(n_clusters=20, init="k-means||", max_iter=50, seed=s)
            .fit(dataset.X).inertia_
            for s in range(3)
        ]
        assert np.median(scalable_finals) < np.median(random_finals)

    def test_baseline_initializers_through_facade(self, dataset):
        model = KMeans(n_clusters=20, init=PartitionInit(), seed=0).fit(dataset.X)
        assert model.inertia_ < 10 * dataset.reference_cost()


class TestMapReduceVsSequential:
    def test_comparable_quality_on_spam(self):
        ds = make_spambase(seed=0, n=1500)
        seq = KMeans(n_clusters=20, init="k-means||", seed=0,
                     max_iter=20).fit(ds.X)
        mr = mr_scalable_kmeans(ds.X, 20, l=40.0, r=5, n_splits=6, seed=0)
        assert mr.final_cost < 3 * seq.inertia_
        assert seq.inertia_ < 3 * mr.final_cost

    def test_mr_random_on_kdd(self):
        ds = make_kddcup(seed=0, n=5000)
        report = mr_random_kmeans(ds.X, 20, n_splits=4, seed=0)
        assert report.final_cost < report.seed_cost / 10  # Lloyd does real work


class TestWeightedCoresetEquivalence:
    def test_clustering_a_coreset_approximates_full(self):
        # Cluster the k-means|| candidate coreset instead of the data;
        # evaluate those centers on the full data. Must land within a
        # modest factor of clustering the full data directly.
        from repro.core import ScalableKMeans, lloyd

        ds = make_gauss_mixture(seed=1, n=4000, k=10, R=100.0)
        init = ScalableKMeans(oversampling_factor=5, n_rounds=5).run(
            ds.X, 10, seed=0
        )
        coreset_model = lloyd(
            init.candidates,
            init.centers,
            weights=init.candidate_weights,
        )
        cost_via_coreset = potential(ds.X, coreset_model.centers)
        direct = KMeans(n_clusters=10, seed=0).fit(ds.X).inertia_
        assert cost_via_coreset < 3 * direct


class TestReproducibilityAcrossSubsystems:
    def test_same_seed_same_everything(self):
        ds = make_spambase(seed=3, n=800)
        a = KMeans(n_clusters=10, seed=42).fit(ds.X)
        b = KMeans(n_clusters=10, seed=42).fit(ds.X)
        np.testing.assert_array_equal(a.cluster_centers_, b.cluster_centers_)
        np.testing.assert_array_equal(a.labels_, b.labels_)
        assert a.inertia_ == b.inertia_

    def test_mr_pipeline_reproducible(self):
        ds = make_gauss_mixture(seed=5, n=1000, k=10)
        a = mr_scalable_kmeans(ds.X, 10, l=20.0, r=3, n_splits=4, seed=11)
        b = mr_scalable_kmeans(ds.X, 10, l=20.0, r=3, n_splits=4, seed=11)
        np.testing.assert_array_equal(a.centers, b.centers)
        assert a.simulated_minutes == b.simulated_minutes
