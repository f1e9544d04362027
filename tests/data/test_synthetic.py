"""Tests for repro.data.synthetic."""

from __future__ import annotations

import numpy as np

from repro.data.synthetic import make_grid_clusters


class TestGridClusters:
    def test_k_equals_side_pow_d(self):
        ds = make_grid_clusters(side=3, points_per_cluster=5, d=2, seed=0)
        assert ds.true_centers.shape == (9, 2)
        assert ds.n == 45

    def test_points_near_their_center(self):
        ds = make_grid_clusters(side=2, points_per_cluster=10, spacing=100.0,
                                noise=0.01, seed=0)
        resid = np.linalg.norm(ds.X - ds.true_centers[ds.labels], axis=1)
        assert resid.max() < 1.0

    def test_optimal_clustering_is_grid(self):
        # With spacing >> noise, phi(grid) must be far below phi(any single
        # center): the ground truth is the unambiguous optimum.
        from repro.core.costs import potential

        ds = make_grid_clusters(side=2, points_per_cluster=20, spacing=50.0,
                                noise=0.1, seed=1)
        phi_truth = potential(ds.X, ds.true_centers)
        phi_one = potential(ds.X, ds.X.mean(axis=0, keepdims=True))
        assert phi_truth < phi_one / 100
