"""Tests for the repro.core.kmeans facade."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.kmeans import KMeans
from repro.core.init_kmeanspp import KMeansPlusPlus
from repro.exceptions import NotFittedError, ValidationError


class TestFit:
    @pytest.mark.parametrize("init", ["k-means||", "k-means++", "random"])
    def test_string_inits(self, blobs, init):
        X, _ = blobs
        model = KMeans(n_clusters=5, init=init, seed=0).fit(X)
        assert model.cluster_centers_.shape == (5, 3)
        assert model.labels_.shape == (X.shape[0],)
        assert model.inertia_ > 0
        assert model.n_iter_ >= 1

    def test_initializer_instance(self, blobs):
        X, _ = blobs
        model = KMeans(n_clusters=5, init=KMeansPlusPlus(), seed=0).fit(X)
        assert model.init_result_.method == "k-means++"

    def test_explicit_centers(self, blobs):
        X, true_centers = blobs
        model = KMeans(n_clusters=5, init=true_centers, seed=0).fit(X)
        assert model.init_result_ is None
        assert model.inertia_ < 1000  # essentially optimal start

    def test_explicit_centers_wrong_shape(self, blobs):
        X, _ = blobs
        with pytest.raises(ValidationError, match="shape"):
            KMeans(n_clusters=5, init=np.zeros((4, 3))).fit(X)

    def test_unknown_string_rejected(self, blobs):
        X, _ = blobs
        with pytest.raises(ValidationError, match="init must be"):
            KMeans(n_clusters=3, init="kmeansplusplus").fit(X)

    def test_balanced_blobs_recovered(self, blobs):
        X, _ = blobs
        model = KMeans(n_clusters=5, seed=0).fit(X)
        assert sorted(np.bincount(model.labels_).tolist()) == [60] * 5

    def test_n_init_picks_best(self, blobs):
        X, _ = blobs
        single = KMeans(n_clusters=5, init="random", n_init=1, seed=123).fit(X)
        multi = KMeans(n_clusters=5, init="random", n_init=8, seed=123).fit(X)
        assert multi.inertia_ <= single.inertia_ + 1e-9

    def test_fit_returns_self(self, blobs):
        X, _ = blobs
        model = KMeans(n_clusters=3, seed=0)
        assert model.fit(X) is model

    def test_fit_predict(self, blobs):
        X, _ = blobs
        model = KMeans(n_clusters=5, seed=0)
        labels = model.fit_predict(X)
        np.testing.assert_array_equal(labels, model.labels_)

    def test_weighted_fit(self, weighted_set):
        points, weights = weighted_set
        model = KMeans(n_clusters=2, seed=0).fit(points, weights=weights)
        assert model.cluster_centers_.shape == (2, 2)

    def test_seed_reproducibility(self, blobs):
        X, _ = blobs
        a = KMeans(n_clusters=5, seed=99).fit(X)
        b = KMeans(n_clusters=5, seed=99).fit(X)
        np.testing.assert_array_equal(a.cluster_centers_, b.cluster_centers_)

    def test_kmeans_parallel_params_forwarded(self, blobs):
        X, _ = blobs
        model = KMeans(
            n_clusters=5, oversampling_factor=1.0, n_rounds=3, seed=0
        ).fit(X)
        assert model.init_result_.params["r"] == 3
        assert model.init_result_.params["l"] == 5.0


class TestPredictTransformScore:
    def test_predict_matches_training_labels(self, blobs):
        X, _ = blobs
        model = KMeans(n_clusters=5, seed=0).fit(X)
        np.testing.assert_array_equal(model.predict(X), model.labels_)

    def test_predict_before_fit(self, blobs):
        X, _ = blobs
        with pytest.raises(NotFittedError):
            KMeans(n_clusters=3).predict(X)

    def test_transform_shape_and_nonneg(self, blobs):
        X, _ = blobs
        model = KMeans(n_clusters=5, seed=0).fit(X)
        D = model.transform(X[:10])
        assert D.shape == (10, 5)
        assert (D >= 0).all()

    def test_transform_is_euclidean_distance(self, blobs):
        X, _ = blobs
        model = KMeans(n_clusters=5, seed=0).fit(X)
        D = model.transform(X[:3])
        manual = np.linalg.norm(
            X[:3, None, :] - model.cluster_centers_[None], axis=2
        )
        np.testing.assert_allclose(D, manual, atol=1e-8)

    def test_score_is_negative_inertia_on_train(self, blobs):
        X, _ = blobs
        model = KMeans(n_clusters=5, seed=0).fit(X)
        assert model.score(X) == pytest.approx(-model.inertia_, rel=1e-9)

    def test_repr(self):
        text = repr(KMeans(n_clusters=7))
        assert "n_clusters=7" in text
        assert "k-means||" in text


NOT_REAL = {
    "complex": lambda X: X.astype(np.complex128),
    "object": lambda X: X.astype(np.complex128).astype(object),
    "string": lambda X: np.full(X.shape, "x"),
}


class TestValidation:
    @pytest.mark.parametrize("kind", sorted(NOT_REAL))
    def test_fit_and_predict_reject_non_real_points(self, blobs, kind):
        X, _ = blobs
        bad = NOT_REAL[kind](X)
        with pytest.raises(ValidationError):
            KMeans(n_clusters=5, seed=0).fit(bad)
        model = KMeans(n_clusters=5, seed=0).fit(X)
        with pytest.raises(ValidationError):
            model.predict(bad)

    def test_n_too_small(self):
        with pytest.raises(ValidationError, match="at least"):
            KMeans(n_clusters=10).fit(np.ones((3, 2)))

    def test_bad_n_clusters(self):
        with pytest.raises(ValidationError):
            KMeans(n_clusters=0)
