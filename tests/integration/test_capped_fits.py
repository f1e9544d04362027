"""A capped fit reports the centers it returns, on every door.

When ``max_iter`` (or, through MapReduce, a stop by ``tol > 0``) ends
Lloyd right after an update, the returned labels and cost are those of
the returned centers, not of the centers before the update.  In memory
they are the reference assignment kernel's, bit for bit, on both Lloyd
paths.  Through MapReduce one more Lloyd job scores the returned centers:
its potential is the mappers' partial phis added, equal to a sequential
``potential(X, centers)`` up to the round-off bound below.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import KMeans, lloyd
from repro.core.costs import potential
from repro.data import make_gauss_mixture
from repro.linalg.distances import assign_labels, row_norms_sq
from repro.mapreduce import mr_lloyd, mr_random_kmeans, mr_scalable_kmeans
from repro.mapreduce.runtime import LocalMapReduceRuntime


@pytest.fixture(scope="module")
def X():
    return make_gauss_mixture(seed=0, n=20_000, d=16, k=16, R=1.0).X


@pytest.fixture(scope="module")
def small():
    rng = np.random.default_rng(3)
    means = rng.normal(scale=8.0, size=(6, 3)) + 20.0
    return np.vstack([m + rng.normal(size=(80, 3)) for m in means])


def _round_off_bound(X, C):
    """How far two sums of the same ``d^2`` profile may differ.

    Per point, the expansion ``d^2`` is within ``4 eps (d + 4)`` times the
    largest squared norm of any point plus any center whatever the GEMM
    blocking (the kernels' slack contract); two sums of ``n`` such terms
    differ by at most ``n eps`` times the total on top.
    """
    eps = np.finfo(np.float64).eps
    n, d = X.shape
    scale = float(row_norms_sq(X).max() + row_norms_sq(C).max())
    return n * 4.0 * eps * (d + 4.0) * scale + n * eps * potential(X, C)


# -- in memory ---------------------------------------------------------------


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
@pytest.mark.parametrize("accelerate", ["none", "hamerly"])
def test_kmeans_capped_fit_reports_the_returned_centers(X, accelerate, weighted):
    w = np.random.default_rng(1).integers(1, 4, X.shape[0]).astype(float) if weighted else None
    model = KMeans(
        n_clusters=16, init="k-means||", max_iter=3, seed=0, accelerate=accelerate
    ).fit(X, weights=w)
    assert model.n_iter_ == 3 and not model.lloyd_result_.converged
    labels, d2 = assign_labels(X, model.cluster_centers_, return_sq_dists=True)
    assert model.labels_.tobytes() == model.predict(X).tobytes() == labels.tobytes()
    assert model.inertia_ == float(np.dot(d2, np.ones(X.shape[0]) if w is None else w))
    assert model.lloyd_result_.cost_history[-1] == model.inertia_


def test_both_paths_return_the_same_capped_fit(X):
    seed = X[::1250][:16]
    ref = lloyd(X, seed, max_iter=4, accelerate="none")
    fast = lloyd(X, seed, max_iter=4, accelerate="hamerly")
    assert ref.centers.tobytes() == fast.centers.tobytes()
    assert ref.labels.tobytes() == fast.labels.tobytes()
    assert ref.cost == fast.cost
    assert ref.cost < ref.cost_history[-2]  # the last update lowered it


# -- MapReduce ---------------------------------------------------------------


@pytest.mark.parametrize("driver", ["scalable", "random"])
def test_mr_driver_capped_final_cost_is_the_returned_centers_potential(small, driver):
    if driver == "scalable":
        report = mr_scalable_kmeans(small, 6, l=12.0, r=3, n_splits=4, seed=5,
                                    lloyd_max_iter=2)
    else:
        report = mr_random_kmeans(small, 6, n_splits=4, seed=5, lloyd_max_iter=2)
    assert report.lloyd_iters == 2
    exact = potential(small, report.centers)
    assert abs(report.final_cost - exact) <= _round_off_bound(small, report.centers)


@pytest.mark.parametrize("tol", [0.0, 1e-2], ids=["capped", "tol"])
def test_mr_lloyd_phi_is_the_returned_centers_potential(small, tol):
    start = small[:6]
    with LocalMapReduceRuntime(small, n_splits=4, seed=0) as runtime:
        centers, phi, n_iter = mr_lloyd(runtime, start, max_iter=3 if tol == 0 else 50, tol=tol)
        names = [s.name for s in runtime.job_log]
    # A capped stop, or one by tol > 0 after a move: one scoring job.
    assert n_iter == (3 if tol == 0 else 8)
    assert names.count("lloyd/iteration") == n_iter
    assert names.count("lloyd/score") == 1
    assert abs(phi - potential(small, centers)) <= _round_off_bound(small, centers)


def test_mr_lloyd_stopped_by_tol_zero_adds_no_job(small):
    start = small[::97][:6]
    with LocalMapReduceRuntime(small, n_splits=4, seed=0) as runtime:
        centers, phi, n_iter = mr_lloyd(runtime, start, max_iter=100, tol=0.0)
        names = [s.name for s in runtime.job_log]
    assert n_iter < 100  # converged: the last update did not move them
    assert names == ["lloyd/iteration"] * n_iter
    assert abs(phi - potential(small, centers)) <= _round_off_bound(small, centers)
