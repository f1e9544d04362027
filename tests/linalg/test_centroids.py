"""Tests for repro.linalg.centroids."""

from __future__ import annotations

import numpy as np
import pytest

from repro.linalg.centroids import cluster_sizes, cluster_sums, weighted_centroids


class TestClusterSums:
    def test_hand_computed(self):
        X = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        labels = np.array([0, 1, 0])
        out = cluster_sums(X, labels, 2)
        np.testing.assert_allclose(out, [[6.0, 8.0], [3.0, 4.0]])

    def test_weighted(self):
        X = np.array([[1.0], [1.0]])
        out = cluster_sums(X, np.array([0, 0]), 1, weights=np.array([2.0, 3.0]))
        np.testing.assert_allclose(out, [[5.0]])

    def test_empty_cluster_zero_sum(self):
        X = np.array([[1.0, 1.0]])
        out = cluster_sums(X, np.array([0]), 3)
        np.testing.assert_allclose(out[1:], 0.0)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            cluster_sums(np.ones((2, 2)), np.array([0, 5]), 2)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="labels length"):
            cluster_sums(np.ones((3, 2)), np.array([0, 1]), 2)


class TestClusterSizes:
    def test_counts(self):
        out = cluster_sizes(np.array([0, 1, 1, 2]), 4)
        np.testing.assert_allclose(out, [1, 2, 1, 0])

    def test_weighted_mass(self):
        out = cluster_sizes(
            np.array([0, 0, 1]), 2, weights=np.array([0.5, 1.5, 2.0])
        )
        np.testing.assert_allclose(out, [2.0, 2.0])

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            cluster_sizes(np.array([-1]), 2)


class TestWeightedCentroids:
    def test_unweighted_means(self, rng):
        X = rng.normal(size=(30, 3))
        labels = rng.integers(0, 3, size=30)
        centers, mass = weighted_centroids(X, labels, 3)
        for j in range(3):
            member = X[labels == j]
            if member.shape[0]:
                np.testing.assert_allclose(centers[j], member.mean(axis=0), atol=1e-12)
                assert mass[j] == member.shape[0]

    def test_weighted_mean(self, weighted_set):
        points, weights = weighted_set
        labels = np.array([0, 0, 1, 1])
        centers, mass = weighted_centroids(points, labels, 2, weights=weights)
        expected0 = (points[0] * 3 + points[1] * 1) / 4
        np.testing.assert_allclose(centers[0], expected0)
        np.testing.assert_allclose(mass, [4.0, 4.0])

    def test_empty_policy_nan(self):
        X = np.array([[1.0, 1.0]])
        centers, mass = weighted_centroids(X, np.array([0]), 2, empty="nan")
        assert np.isnan(centers[1]).all()
        assert mass[1] == 0.0

    def test_empty_policy_zero(self):
        X = np.array([[1.0, 1.0]])
        centers, _ = weighted_centroids(X, np.array([0]), 2, empty="zero")
        np.testing.assert_allclose(centers[1], 0.0)

    def test_bad_policy(self):
        with pytest.raises(ValueError, match="empty must be"):
            weighted_centroids(np.ones((1, 1)), np.array([0]), 1, empty="explode")

    def test_mass_conservation(self, rng):
        X = rng.normal(size=(50, 2))
        w = rng.uniform(0.1, 5.0, size=50)
        labels = rng.integers(0, 7, size=50)
        _, mass = weighted_centroids(X, labels, 7, weights=w)
        assert mass.sum() == pytest.approx(w.sum())


class TestUnitMass:
    """Unit weights skip the weighted copy; the sums keep their bytes."""

    @pytest.fixture
    def data(self, rng):
        # Several engine blocks of the fixed sums budget, so the skipped
        # multiply would show in any block.
        X = rng.normal(size=(200_000, 9)) * 1e3
        return X, rng.integers(0, 6, size=X.shape[0])

    def test_unit_weights_equal_no_weights_byte_for_byte(self, data):
        X, labels = data
        centers, mass = weighted_centroids(X, labels, 6, weights=np.ones(X.shape[0]))
        want_centers, want_mass = weighted_centroids(X, labels, 6)
        assert centers.tobytes() == want_centers.tobytes()
        assert mass.tobytes() == want_mass.tobytes()

    def test_one_weight_off_one_takes_the_multiply(self, data):
        X, labels = data
        w = np.ones(X.shape[0])
        w[17] = 2.5
        sums = cluster_sums(X, labels, 6, weights=w)
        assert sums.tobytes() == cluster_sums(X * w[:, None], labels, 6).tobytes()
        assert sums.tobytes() != cluster_sums(X, labels, 6).tobytes()
