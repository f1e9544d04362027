"""Tests for repro.core.init_scalable (Algorithm 2, k-means||)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.costs import potential
from repro.core.init_kmeanspp import KMeansPlusPlus
from repro.core.init_scalable import ScalableKMeans, scalable_init
from repro.core.reclustering import RandomReclusterer, TopUpPolicy
from repro.exceptions import InsufficientCentersError, ValidationError


class TestConstruction:
    def test_default_factor_two(self):
        init = ScalableKMeans()
        assert init.resolve_l(10) == 20.0

    def test_absolute_oversampling(self):
        assert ScalableKMeans(oversampling=7.5).resolve_l(100) == 7.5

    def test_both_l_forms_rejected(self):
        with pytest.raises(ValidationError, match="not both"):
            ScalableKMeans(5.0, oversampling_factor=2.0)

    def test_negative_l_rejected(self):
        with pytest.raises(ValidationError):
            ScalableKMeans(-1.0)
        with pytest.raises(ValidationError):
            ScalableKMeans(oversampling_factor=0.0)

    def test_bad_rounds_rejected(self):
        with pytest.raises(ValidationError, match="log-psi"):
            ScalableKMeans(n_rounds=-1)
        with pytest.raises(ValidationError, match="log-psi"):
            ScalableKMeans(n_rounds="sometimes")
        with pytest.raises(ValidationError, match="log-psi"):
            ScalableKMeans(n_rounds=2.5)

    def test_bad_sampling_rejected(self):
        with pytest.raises(ValidationError, match="sampling"):
            ScalableKMeans(sampling="poisson")

    def test_top_up_accepts_string(self):
        assert ScalableKMeans(top_up="error").top_up is TopUpPolicy.ERROR


class TestAlgorithm:
    def test_returns_k_centers(self, blobs):
        X, _ = blobs
        result = ScalableKMeans(oversampling_factor=2, n_rounds=5).run(X, 5, seed=0)
        assert result.centers.shape == (5, 3)

    def test_oversampled_candidate_count(self, blobs):
        # E[candidates] = 1 + r*l when no probabilities clip; allow slack.
        X, _ = blobs
        counts = [
            ScalableKMeans(oversampling_factor=2, n_rounds=5).run(X, 5, seed=s).n_candidates
            for s in range(10)
        ]
        assert 5 <= np.mean(counts) <= 1 + 5 * 10 + 20

    def test_candidates_are_data_points(self, blobs):
        X, _ = blobs
        result = ScalableKMeans(oversampling_factor=1, n_rounds=3).run(X, 5, seed=0)
        for c in result.candidates:
            assert (np.abs(X - c).sum(axis=1) < 1e-12).any()

    def test_weights_sum_to_n(self, blobs):
        X, _ = blobs
        result = ScalableKMeans(oversampling_factor=2, n_rounds=5).run(X, 5, seed=1)
        assert result.candidate_weights.sum() == pytest.approx(X.shape[0])

    def test_round_costs_monotone_decreasing(self, blobs):
        X, _ = blobs
        result = ScalableKMeans(oversampling_factor=2, n_rounds=5).run(X, 5, seed=2)
        costs = result.round_costs()
        assert (np.diff(costs) <= 1e-9).all()

    def test_covers_separated_blobs(self, blobs):
        X, true_centers = blobs
        result = ScalableKMeans(oversampling_factor=2, n_rounds=5).run(X, 5, seed=3)
        picked = {
            int(np.argmin(((true_centers - c) ** 2).sum(axis=1)))
            for c in result.centers
        }
        assert picked == {0, 1, 2, 3, 4}

    def test_seed_quality_comparable_to_kmeanspp(self, blobs):
        X, _ = blobs
        scal = np.median(
            [
                ScalableKMeans(oversampling_factor=2, n_rounds=5)
                .run(X, 5, seed=s).seed_cost
                for s in range(10)
            ]
        )
        pp = np.median(
            [KMeansPlusPlus().run(X, 5, seed=s).seed_cost for s in range(10)]
        )
        assert scal <= pp * 2.0  # "consistently as good or better" (with noise slack)

    def test_n_passes_accounting(self, blobs):
        # The psi pass plus one per round; Step 7 reads the rounds' argmin.
        X, _ = blobs
        result = ScalableKMeans(oversampling_factor=2, n_rounds=5).run(X, 5, seed=0)
        assert result.n_passes == result.n_rounds + 1
        # A narrower working dtype pays one float64 pass for the weights.
        result = ScalableKMeans(
            oversampling_factor=2, n_rounds=5, working_dtype="float32"
        ).run(X, 5, seed=0)
        assert result.n_passes == result.n_rounds + 2

    def test_zero_rounds_single_candidate(self, blobs):
        X, _ = blobs
        result = ScalableKMeans(oversampling_factor=2, n_rounds=0).run(X, 5, seed=0)
        assert result.n_candidates == 1
        assert result.centers.shape == (5, 3)  # padded up

    def test_log_psi_schedule(self, blobs):
        X, _ = blobs
        result = ScalableKMeans(oversampling_factor=2, n_rounds="log-psi").run(
            X, 5, seed=0
        )
        assert 1 <= result.n_rounds <= 100
        assert result.params["r"] == result.n_rounds or result.params["r"] >= result.n_rounds

    def test_perfectly_coverable_data_stops_early(self):
        # k distinct points, n copies: potential hits 0, rounds stop.
        X = np.repeat(np.eye(3) * 10.0, 20, axis=0)
        result = ScalableKMeans(oversampling_factor=5, n_rounds=50).run(X, 3, seed=0)
        assert result.n_rounds < 50
        assert result.seed_cost == pytest.approx(0.0, abs=1e-12)

    def test_k_larger_than_n_rejected(self, rng):
        with pytest.raises(ValidationError, match="exceeds"):
            ScalableKMeans().run(rng.normal(size=(4, 2)), 5)

    def test_deterministic(self, blobs):
        X, _ = blobs
        a = ScalableKMeans(oversampling_factor=2, n_rounds=5).run(X, 5, seed=7)
        b = ScalableKMeans(oversampling_factor=2, n_rounds=5).run(X, 5, seed=7)
        np.testing.assert_array_equal(a.centers, b.centers)


class TestExactSampling:
    def test_exact_candidate_count(self, blobs):
        X, _ = blobs
        result = ScalableKMeans(
            oversampling_factor=2, n_rounds=4, sampling="exact"
        ).run(X, 5, seed=0)
        # exactly 1 + r*l unless the distribution degenerates
        assert result.n_candidates == 1 + 4 * 10

    def test_exact_no_duplicates(self, blobs):
        X, _ = blobs
        result = ScalableKMeans(
            oversampling_factor=2, n_rounds=5, sampling="exact"
        ).run(X, 5, seed=1)
        assert (
            np.unique(result.candidates, axis=0).shape[0]
            == result.candidates.shape[0]
        )

    def test_exact_on_degenerate_data(self):
        X = np.repeat(np.eye(2) * 5.0, 10, axis=0)
        result = ScalableKMeans(
            oversampling_factor=3, n_rounds=10, sampling="exact"
        ).run(X, 2, seed=0)
        assert result.seed_cost == pytest.approx(0.0, abs=1e-12)


class TestTopUpPolicies:
    def test_pad_reaches_k(self, blobs):
        X, _ = blobs
        result = ScalableKMeans(
            oversampling=0.5, n_rounds=2, top_up=TopUpPolicy.PAD
        ).run(X, 10, seed=0)
        assert result.centers.shape[0] == 10

    def test_truncate_returns_short(self, blobs):
        X, _ = blobs
        result = ScalableKMeans(
            oversampling=0.5, n_rounds=1, top_up=TopUpPolicy.TRUNCATE
        ).run(X, 20, seed=0)
        assert result.centers.shape[0] < 20

    def test_error_raises(self, blobs):
        X, _ = blobs
        with pytest.raises(InsufficientCentersError, match="r\\*l >= k"):
            ScalableKMeans(
                oversampling=0.5, n_rounds=1, top_up=TopUpPolicy.ERROR
            ).run(X, 20, seed=0)


class TestReclustererPlugin:
    def test_random_reclusterer_used(self, blobs):
        X, _ = blobs
        result = ScalableKMeans(
            oversampling_factor=2, n_rounds=5, reclusterer=RandomReclusterer()
        ).run(X, 5, seed=0)
        assert result.params["reclusterer"] == "random"
        assert result.centers.shape == (5, 3)

    def test_weighted_reclustering_beats_random_pick(self, blobs):
        X, _ = blobs
        smart = np.median(
            [
                ScalableKMeans(oversampling_factor=2, n_rounds=5)
                .run(X, 5, seed=s).seed_cost
                for s in range(8)
            ]
        )
        dumb = np.median(
            [
                ScalableKMeans(
                    oversampling_factor=2, n_rounds=5, reclusterer=RandomReclusterer()
                ).run(X, 5, seed=s).seed_cost
                for s in range(8)
            ]
        )
        assert smart <= dumb


class TestFunctionalWrapper:
    def test_returns_centers(self, blobs):
        X, _ = blobs
        centers = scalable_init(X, 5, oversampling_factor=1.0, n_rounds=5, seed=0)
        assert centers.shape == (5, 3)

    def test_seed_cost_matches_potential(self, blobs):
        X, _ = blobs
        result = ScalableKMeans(oversampling_factor=2, n_rounds=5).run(X, 5, seed=4)
        assert result.seed_cost == pytest.approx(potential(X, result.centers))

    def test_forwards_exact_sampling(self, blobs):
        # Regression: scalable_init used to drop sampling=, so the
        # functional API could never run the Section 5.3 "exact" mode.
        X, _ = blobs
        exact = scalable_init(
            X, 5, oversampling_factor=2.0, n_rounds=4, sampling="exact", seed=0
        )
        assert exact.shape == (5, 3)
        via_class = ScalableKMeans(
            oversampling_factor=2.0, n_rounds=4, sampling="exact"
        ).run(X, 5, seed=0)
        np.testing.assert_array_equal(exact, via_class.centers)

    def test_rejects_bad_sampling_mode(self, blobs):
        X, _ = blobs
        with pytest.raises(ValidationError, match="sampling"):
            scalable_init(X, 5, sampling="sometimes", seed=0)

    def test_forwards_top_up(self, blobs):
        X, _ = blobs
        with pytest.raises(InsufficientCentersError):
            scalable_init(
                X, 20, oversampling=0.5, n_rounds=1,
                top_up=TopUpPolicy.ERROR, seed=0,
            )
        short = scalable_init(
            X, 20, oversampling=0.5, n_rounds=1, top_up="truncate", seed=0
        )
        assert short.shape[0] < 20

    def test_forwards_reclusterer(self, blobs):
        X, _ = blobs
        centers = scalable_init(
            X, 5, oversampling_factor=2.0, n_rounds=5,
            reclusterer=RandomReclusterer(), seed=0,
        )
        # RandomReclusterer picks existing candidates (data points) rather
        # than Lloyd-refined centroids, so every center is a data row.
        for c in centers:
            assert (np.abs(X - c).sum(axis=1) < 1e-12).any()
