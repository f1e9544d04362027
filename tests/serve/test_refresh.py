"""StreamingRefresher: fold semantics, publish triggers, offline identity."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.gauss_mixture import make_gauss_mixture
from repro.exceptions import ValidationError
from repro.linalg import sparse as _sparse
from repro.serve import ModelRegistry, StreamingRefresher, fold_centers, offline_fold


@pytest.fixture(scope="module")
def workload():
    ds = make_gauss_mixture(seed=41, n=1800, d=5, k=12, R=8.0)
    return ds.X, ds.true_centers


def batches_of(X, size):
    return [X[i:i + size] for i in range(0, X.shape[0], size)]


class TestFoldCenters:
    def test_plain_mean(self, rng):
        centers = rng.normal(size=(3, 2))
        sums = rng.normal(size=(3, 2))
        counts = np.array([4.0, 2.0, 1.0])
        folded = fold_centers(centers, sums, counts)
        np.testing.assert_array_equal(folded, sums / counts[:, None])

    def test_empty_cluster_keeps_row_bit_exact(self, rng):
        centers = rng.normal(size=(4, 3))
        sums = rng.normal(size=(4, 3))
        sums[2] = 0.0
        counts = np.array([5.0, 1.0, 0.0, 2.0])
        folded = fold_centers(centers, sums, counts)
        # Not just close: the untouched row must be the same bytes.
        np.testing.assert_array_equal(folded[2], centers[2])


class TestStreamingRefresher:
    def test_matches_offline_fold_publish_every(self, workload):
        X, centers = workload
        batches = batches_of(X, 300)
        with ModelRegistry(shared=False, keep_versions=20) as registry:
            registry.publish(centers)
            refresher = StreamingRefresher(registry, publish_every=2)
            published = []
            for batch in batches:
                model = refresher.observe(batch)
                if model is not None:
                    published.append(np.asarray(model.centers))
            model = refresher.flush()
            if model is not None:
                published.append(np.asarray(model.centers))
        reference = offline_fold(centers, batches, publish_every=2)
        assert len(published) == len(reference)
        for got, want in zip(published, reference):
            np.testing.assert_array_equal(got, want)

    def test_float32_model_round_trips(self, workload):
        X, centers = workload
        batches = batches_of(X.astype(np.float32), 400)
        start = centers.astype(np.float32)
        with ModelRegistry(shared=False, keep_versions=20) as registry:
            registry.publish(start)
            refresher = StreamingRefresher(registry, publish_every=1)
            published = []
            for batch in batches:
                model = refresher.observe(batch)
                if model is not None:
                    published.append(np.asarray(model.centers))
        reference = offline_fold(start, batches, publish_every=1)
        assert len(published) == len(reference)
        for got, want in zip(published, reference):
            assert got.dtype == np.float32
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_batch_rejected_before_folding(self, workload, bad):
        X, centers = workload
        good = batches_of(X, 300)
        poisoned = good[2].copy()
        poisoned[7, 3] = bad
        with ModelRegistry(shared=False, keep_versions=20) as registry:
            registry.publish(centers)
            refresher = StreamingRefresher(registry, publish_every=2)
            published = []
            for i, batch in enumerate(good):
                if i == 3:  # one batch pending, so the sums are not zero
                    before = (
                        refresher.n_observed,
                        refresher._pending_batches,
                        refresher._sums.copy(),
                        refresher._counts.copy(),
                    )
                    with pytest.raises(ValidationError, match="non-finite"):
                        refresher.observe(poisoned)
                    assert refresher.n_observed == before[0]
                    assert refresher._pending_batches == before[1]
                    np.testing.assert_array_equal(refresher._sums, before[2])
                    np.testing.assert_array_equal(refresher._counts, before[3])
                model = refresher.observe(batch)
                if model is not None:
                    published.append(np.asarray(model.centers))
            model = refresher.flush()
            if model is not None:
                published.append(np.asarray(model.centers))
        reference = offline_fold(centers, good, publish_every=2)
        assert len(published) == len(reference) > 1
        for got, want in zip(published, reference):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("kind", ["complex", "object", "string"])
    def test_non_real_batch_rejected_before_folding(self, workload, kind):
        X, centers = workload
        cast = {"complex": np.complex128, "object": object, "string": str}[kind]
        with ModelRegistry(shared=False) as registry:
            registry.publish(centers)
            refresher = StreamingRefresher(registry, publish_every=2)
            refresher.observe(X[:100])  # pending, so the sums are not zero
            sums, counts = refresher._sums.copy(), refresher._counts.copy()
            with pytest.raises(ValidationError, match="real numbers"):
                refresher.observe(X[100:200].astype(cast))
            assert refresher.n_observed == 100
            np.testing.assert_array_equal(refresher._sums, sums)
            np.testing.assert_array_equal(refresher._counts, counts)
            assert registry.current().version == 1

    @pytest.mark.skipif(not _sparse.HAVE_SCIPY, reason="needs scipy")
    def test_non_finite_csr_batch_rejected(self, workload):
        from scipy.sparse import csr_matrix

        X, centers = workload
        poisoned = csr_matrix(X[:50])
        poisoned.data[11] = np.nan
        with ModelRegistry(shared=False) as registry:
            registry.publish(centers)
            refresher = StreamingRefresher(registry, publish_every=1)
            with pytest.raises(ValidationError):
                refresher.observe(poisoned)
            assert refresher.n_observed == 0
            assert registry.current().version == 1

    def test_flush_without_pending_is_noop(self, workload):
        _, centers = workload
        with ModelRegistry(shared=False) as registry:
            registry.publish(centers)
            refresher = StreamingRefresher(registry, publish_every=1)
            assert refresher.flush() is None
            assert registry.current().version == 1

    def test_refresher_never_blocks_readers(self, workload):
        """Readers holding the pre-refresh model keep working mid-publish."""
        X, centers = workload
        from repro.serve import assign_serve

        with ModelRegistry(shared=False, keep_versions=0) as registry:
            old = registry.publish(centers)
            expected = assign_serve(X[:50], old).labels
            refresher = StreamingRefresher(registry, publish_every=1)
            refresher.observe(X[:600])
            assert registry.current().version == 2
            np.testing.assert_array_equal(
                assign_serve(X[:50], old).labels, expected
            )

    def test_validation(self, workload):
        _, centers = workload
        with ModelRegistry(shared=False) as registry:
            registry.publish(centers)
            with pytest.raises(ValidationError):
                StreamingRefresher(registry, publish_every=0)
            refresher = StreamingRefresher(registry, publish_every=5)
            with pytest.raises(ValidationError):
                refresher.observe(np.ones((4, centers.shape[1] + 1)))
