"""One input rule: every door that takes points rejects non-real dtypes.

Points must be boolean, integer or floating.  ``check_array`` (behind
``KMeans``, ``lloyd`` and ``scalable_init``) used to cast numeric strings
and object arrays to float64, and ``mr_scalable_kmeans`` ran them through
its jobs, while the serve doors rejected them.  Every door now rejects
numeric strings, object arrays of floats and complex numbers with
:class:`~repro.exceptions.ValidationError`, before any work and without
a cast warning; the MapReduce drivers run no job.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro import KMeans, lloyd, scalable_init
from repro.data.gauss_mixture import make_gauss_mixture
from repro.exceptions import ValidationError
from repro.mapreduce import LocalMapReduceRuntime, mr_random_kmeans, mr_scalable_kmeans
from repro.serve import AssignmentService, ModelRegistry, StreamingRefresher

NOT_REAL = {
    "numeric-string": lambda X: X.astype(str),
    "object-of-floats": lambda X: X.astype(object),
    "complex": lambda X: X.astype(np.complex128),
}


@pytest.fixture(scope="module")
def data():
    ds = make_gauss_mixture(seed=3, n=400, d=3, k=4, R=8.0)
    model = KMeans(n_clusters=4, seed=0).fit(ds.X)
    return ds.X, model


def _serve(bad, X, model):
    with ModelRegistry(shared=False) as registry:
        registry.publish(model.cluster_centers_)
        with AssignmentService(registry) as service:
            try:
                service.assign(bad)
            finally:
                assert service.stats().n_requests == 0


def _observe(bad, X, model):
    with ModelRegistry(shared=False) as registry:
        registry.publish(model.cluster_centers_)
        refresher = StreamingRefresher(registry, publish_every=1)
        try:
            refresher.observe(bad)
        finally:
            assert refresher.n_observed == 0
            assert registry.current().version == 1


DOORS = {
    "KMeans.fit": lambda bad, X, model: KMeans(n_clusters=4, seed=0).fit(bad),
    "KMeans.predict": lambda bad, X, model: model.predict(bad),
    "KMeans.transform": lambda bad, X, model: model.transform(bad),
    "KMeans.score": lambda bad, X, model: model.score(bad),
    "lloyd": lambda bad, X, model: lloyd(bad, X[:4]),
    "scalable_init": lambda bad, X, model: scalable_init(bad, 4, seed=0),
    "mr_scalable_kmeans": lambda bad, X, model: mr_scalable_kmeans(
        bad, 4, l=8.0, n_splits=2, seed=0
    ),
    "mr_random_kmeans": lambda bad, X, model: mr_random_kmeans(
        bad, 4, n_splits=2, seed=0
    ),
    "AssignmentService.assign": _serve,
    "StreamingRefresher.observe": _observe,
}


@pytest.mark.parametrize("kind", sorted(NOT_REAL))
@pytest.mark.parametrize("door", sorted(DOORS))
def test_door_rejects_non_real_points(data, door, kind):
    X, model = data
    bad = NOT_REAL[kind](X[:200])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="real numbers"):
            DOORS[door](bad, X, model)


@pytest.mark.parametrize("kind", sorted(NOT_REAL))
@pytest.mark.parametrize("door", ["mr_random_kmeans", "mr_scalable_kmeans"])
def test_mr_door_runs_no_job_on_non_real_points(data, door, kind, monkeypatch):
    X, model = data
    jobs = []
    monkeypatch.setattr(
        LocalMapReduceRuntime, "run_job", lambda self, job: jobs.append(job.name)
    )
    with pytest.raises(ValidationError, match="real numbers"):
        DOORS[door](NOT_REAL[kind](X[:200]), X, model)
    assert jobs == []
