"""Property tests: the serving path is indistinguishable from the oracle.

Two contracts under arbitrary adversarial instances:

* **Assignment identity** — ``assign_serve`` returns labels
  bit-identical to ``assign_labels`` (lowest-index ties and all) for
  any batch split, any engine worker count, and both working dtypes.
  This is the guarantee the whole serving path leans on; it rests on
  the distance kernels giving a row the same bits wherever it sits in
  a batch.
* **Refresh identity** — folding a stream of mini-batches through
  :class:`StreamingRefresher` publishes exactly the center matrices of
  the :func:`offline_fold` reference replay (which assigns with the
  naive kernel), so the streaming path adds nothing but scheduling.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg.distances import _as_working, assign_labels
from repro.linalg.engine import Engine, use_engine
from repro.serve import (
    ModelRegistry,
    ServedModel,
    StreamingRefresher,
    assign_serve,
    offline_fold,
)
from tests.properties.strategies import points_and_k

SETTINGS = dict(max_examples=40, deadline=None)


def naive_labels(X, centers):
    return assign_labels(*_as_working(np.asarray(X), np.asarray(centers)))


class TestAssignIdentity:
    @given(data=st.data())
    @settings(**SETTINGS)
    def test_labels_match_naive_across_splits_workers_dtypes(self, data):
        X, k = data.draw(points_and_k(min_rows=4))
        dtype = data.draw(st.sampled_from([np.float64, np.float32]))
        workers = data.draw(st.sampled_from([1, 3]))
        pieces = data.draw(st.integers(1, min(5, X.shape[0])))
        X = X.astype(dtype)
        centers = X[:k].copy()
        model = ServedModel.freeze(1, centers)
        expected = naive_labels(X, centers)
        with use_engine(Engine(workers=workers, chunk_bytes=1 << 14)):
            got = np.concatenate(
                [
                    assign_serve(part, model).labels
                    for part in np.array_split(X, pieces)
                ]
            )
        np.testing.assert_array_equal(got, expected)

    @given(data=st.data())
    @settings(**SETTINGS)
    def test_sq_dists_match_reference_rounding(self, data):
        X, k = data.draw(points_and_k(min_rows=4))
        centers = X[:k].copy()
        model = ServedModel.freeze(1, centers)
        result = assign_serve(X, model)
        _, d2 = assign_labels(
            *_as_working(X, centers), return_sq_dists=True
        )
        np.testing.assert_array_equal(result.sq_dists, d2)


class TestRefreshIdentity:
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_streaming_equals_offline_fold(self, data):
        X, k = data.draw(points_and_k(min_rows=6, max_rows=30))
        centers = X[:k].copy()
        n_batches = data.draw(st.integers(1, 4))
        publish_every = data.draw(st.sampled_from([1, 2, None]))
        batches = [
            np.asarray(part)
            for part in np.array_split(X, n_batches)
            if part.shape[0]
        ]
        with ModelRegistry(shared=False, keep_versions=50) as registry:
            registry.publish(centers)
            refresher = StreamingRefresher(registry, publish_every=publish_every)
            published = []
            for batch in batches:
                model = refresher.observe(batch)
                if model is not None:
                    published.append(np.asarray(model.centers))
            model = refresher.flush()
            if model is not None:
                published.append(np.asarray(model.centers))
        reference = offline_fold(centers, batches, publish_every=publish_every)
        assert len(published) == len(reference)
        for got, want in zip(published, reference):
            np.testing.assert_array_equal(got, want)
