"""Both front doors reject the same bad argument the same way.

The in-memory door (``ScalableKMeans``, ``KMeans``, ``lloyd``) and the
MapReduce door (``mr_scalable_kmeans``, ``mr_random_kmeans``,
``mr_lloyd``) check ``k``, ``l``, ``r``, the Lloyd iteration cap and
``tol`` and raise :class:`ValidationError` for the same bad value —
the MapReduce door before its first job.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.init_scalable import ScalableKMeans
from repro.core.kmeans import KMeans
from repro.core.lloyd import lloyd
from repro.exceptions import ValidationError
from repro.mapreduce.kmeans_mr import mr_lloyd, mr_random_kmeans, mr_scalable_kmeans
from repro.mapreduce.runtime import LocalMapReduceRuntime

N = 120
X = np.random.default_rng(0).normal(size=(N, 3))
C = X[:4].copy()


def _mr_lloyd(**kwargs):
    with LocalMapReduceRuntime(X, n_splits=2) as runtime:
        return mr_lloyd(runtime, C, **kwargs)


#: (in-memory call, MapReduce call) with the same bad argument.
CASES = {
    "k=0": (
        lambda: KMeans(n_clusters=0).fit(X),
        lambda: mr_scalable_kmeans(X, 0, l=8.0),
    ),
    "k>n": (
        lambda: ScalableKMeans().run(X, N + 1),
        lambda: mr_scalable_kmeans(X, N + 1, l=8.0),
    ),
    "k>n random": (
        lambda: KMeans(n_clusters=N + 1, init="random").fit(X),
        lambda: mr_random_kmeans(X, N + 1),
    ),
    "l=0": (
        lambda: ScalableKMeans(oversampling=0.0),
        lambda: mr_scalable_kmeans(X, 4, l=0.0),
    ),
    "l<0": (
        lambda: ScalableKMeans(oversampling=-8.0),
        lambda: mr_scalable_kmeans(X, 4, l=-8.0),
    ),
    "r<0": (
        lambda: ScalableKMeans(n_rounds=-1),
        lambda: mr_scalable_kmeans(X, 4, l=8.0, r=-1),
    ),
    "max_iter=0": (
        lambda: KMeans(n_clusters=4, max_iter=0),
        lambda: mr_scalable_kmeans(X, 4, l=8.0, lloyd_max_iter=0),
    ),
    "max_iter=0 random": (
        lambda: KMeans(n_clusters=4, init="random", max_iter=0),
        lambda: mr_random_kmeans(X, 4, lloyd_max_iter=0),
    ),
    "max_iter=0 lloyd": (
        lambda: lloyd(X, C, max_iter=0),
        lambda: _mr_lloyd(max_iter=0),
    ),
    "tol<0": (
        lambda: lloyd(X, C, tol=-1.0),
        lambda: _mr_lloyd(tol=-1.0),
    ),
}


def _raised(call) -> type[BaseException] | None:
    try:
        call()
    except Exception as exc:  # noqa: BLE001 - the class is the result
        return type(exc)
    return None


@pytest.mark.parametrize("case", list(CASES))
def test_same_bad_argument_same_exception(case, monkeypatch):
    def no_job(self, job):
        raise AssertionError(f"job {job.name!r} ran before the arguments were checked")

    monkeypatch.setattr(LocalMapReduceRuntime, "run_job", no_job)
    in_memory, mapreduce = CASES[case]
    assert _raised(in_memory) is ValidationError
    assert _raised(mapreduce) is ValidationError
