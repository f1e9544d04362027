"""Both MR drivers score the seed with the first Lloyd job, not a pass of their own.

Section 3.5 adds the mappers' partial potentials.  The first Lloyd job
computes exactly that for the seed centers, so ``seed_cost`` is its phi,
bit for bit; against a sequential ``potential(X, seed)`` it differs only
by round-off (the order of the sum and the GEMM blocking of each
``d^2``).  The driver reads the data only to draw top-up rows, and Step 7
rides on the last round's fold, whose counts are the candidates' weights.
When the last Lloyd update moved the centers, one more Lloyd job scores
the returned centers, so ``final_cost`` is their potential.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.costs import potential
from repro.core.reclustering import TopUpPolicy
from repro.data.splits import ShardedSplitSource
from repro.linalg.centroids import cluster_sizes
from repro.linalg.distances import assign_labels, row_norms_sq
from repro.mapreduce import kmeans_mr
from repro.mapreduce.jobs.lloyd_job import collect_new_centers, make_lloyd_job
from repro.mapreduce.runtime import LocalMapReduceRuntime

N_SPLITS = 4


def _shards(tmp_path, X, n_shards=3):
    """``X`` as a directory of ``.npy`` shards: its source reads through a
    row reader that records every driver-side access."""
    for i, part in enumerate(np.array_split(X, n_shards)):
        np.save(tmp_path / f"shard-{i:03d}.npy", part)
    return ShardedSplitSource(tmp_path)


@pytest.fixture
def X():
    rng = np.random.default_rng(3)
    means = rng.normal(scale=8.0, size=(6, 3)) + 20.0
    return np.vstack([m + rng.normal(size=(80, 3)) for m in means])


@pytest.fixture
def lloyd_centers(monkeypatch):
    """Record the centers every Lloyd job of a driver starts from."""
    seen = []

    def recording(centers, **kwargs):
        seen.append(np.array(centers, copy=True))
        return make_lloyd_job(centers, **kwargs)

    monkeypatch.setattr(kmeans_mr, "make_lloyd_job", recording)
    return seen


def _first_job_phi(X, seed_centers):
    with LocalMapReduceRuntime(X, n_splits=N_SPLITS, seed=0) as runtime:
        result = runtime.run_job(make_lloyd_job(seed_centers))
    return collect_new_centers(result.output, seed_centers)[1]


def _round_off_bound(X, C):
    """Round-off allowance between two sums of the same ``d^2`` profile.

    Per point, the expansion ``d^2`` is within ``4 eps (d + 4)`` times the
    largest squared norm of any point plus any center whatever the GEMM
    blocking (the kernels' slack contract); the two sums of ``n`` such
    terms differ by at most ``n eps`` times the total on top.
    """
    eps = np.finfo(np.float64).eps
    n, d = X.shape
    scale = float(row_norms_sq(X).max() + row_norms_sq(C).max())
    phi = potential(X, C)
    return n * 4.0 * eps * (d + 4.0) * scale + n * eps * phi


@pytest.mark.parametrize("driver", ["scalable", "random"])
def test_seed_cost_is_the_first_lloyd_jobs_phi(tmp_path, X, lloyd_centers, driver):
    source = _shards(tmp_path, X)
    if driver == "scalable":
        report = kmeans_mr.mr_scalable_kmeans(
            source, 6, l=12.0, r=3, n_splits=N_SPLITS, seed=5, lloyd_max_iter=4,
        )
    else:
        report = kmeans_mr.mr_random_kmeans(
            source, 6, n_splits=N_SPLITS, seed=5, lloyd_max_iter=4,
        )
    seed_centers = lloyd_centers[0]
    # One job per iteration, and one scoring the returned centers when
    # the last update moved them.
    moved = not np.array_equal(lloyd_centers[report.lloyd_iters - 1], report.centers)
    assert len(lloyd_centers) == report.lloyd_iters + moved
    assert report.seed_cost == _first_job_phi(X, seed_centers)
    exact = potential(X, seed_centers)
    assert abs(report.seed_cost - exact) <= _round_off_bound(X, seed_centers)
    # No driver pass over X: the row reader was never read.
    assert source.as_array().peak_section_rows == 0


def test_capped_at_one_iteration_final_cost_scores_the_returned_centers(X, lloyd_centers):
    report = kmeans_mr.mr_scalable_kmeans(
        X, 6, l=12.0, r=3, n_splits=N_SPLITS, seed=5, lloyd_max_iter=1,
    )
    assert report.lloyd_iters == 1
    seed_centers, scored = lloyd_centers
    assert report.seed_cost == _first_job_phi(X, seed_centers)
    assert scored.tobytes() == report.centers.tobytes()
    assert report.final_cost == _first_job_phi(X, report.centers)
    assert report.final_cost < report.seed_cost


def test_top_up_is_the_drivers_only_read(tmp_path, X, lloyd_centers):
    source = _shards(tmp_path, X)
    # r = 0: the first center is the only candidate, so k - 1 rows are
    # drawn as top-up, and they are all the driver reads.
    k = 5
    report = kmeans_mr.mr_scalable_kmeans(
        source, k, l=2.0, r=0, n_splits=N_SPLITS, seed=1, lloyd_max_iter=2,
        top_up=TopUpPolicy.PAD,
    )
    assert report.n_candidates == 1
    assert source.as_array().peak_section_rows == k - 1
    assert report.seed_cost == _first_job_phi(X, lloyd_centers[0])


def test_fold_and_weigh_counts_are_the_candidate_weights(X, monkeypatch):
    calls = []
    original = kmeans_mr.KMeansPlusPlus

    class Spy(original):
        def run(self, candidates, k, *, weights=None, seed=None):
            calls.append((np.array(candidates, copy=True), np.array(weights)))
            return super().run(candidates, k, weights=weights, seed=seed)

    monkeypatch.setattr(kmeans_mr, "KMeansPlusPlus", Spy)
    report = kmeans_mr.mr_scalable_kmeans(
        X, 6, l=12.0, r=3, n_splits=N_SPLITS, seed=5, lloyd_max_iter=2,
    )
    (candidates, weights), = calls
    assert candidates.shape[0] == report.n_candidates > 6
    expected = cluster_sizes(assign_labels(X, candidates), candidates.shape[0])
    np.testing.assert_array_equal(weights, expected)
    # 1 uniform sample + 3 update-cost + 3 sample-round + 1 fold-and-weigh
    # + 2 Lloyd + 1 scoring the capped fit's centers; no separate weight job.
    assert report.n_jobs == 11
