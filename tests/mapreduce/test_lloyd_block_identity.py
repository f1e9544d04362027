"""One ``(k, d+1)`` block per split folds to the per-cluster fold, bit for bit.

A Lloyd job at ``"split"`` granularity ships one ``[sums | counts]`` block
per split and adds the blocks in split order.  The per-cluster fold it
replaced is written out here as the oracle: per split, ``cluster_sums``
and ``cluster_sizes`` of the split's assignment; per cluster, the
``(d+1,)`` records of the splits that hold it, added in split order from
the first such split.  ``mr_lloyd``'s centers and potential must equal
the oracle's bit for bit on every backend and under a spilling shuffle,
because an empty cluster's row of zeros changes no partial sum.  The
potential is the returned centers': after a capped last update, one more
round of per-split phis scores them.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.exec import ProcessBackend, SerialBackend, ThreadBackend
from repro.linalg.centroids import cluster_sizes, cluster_sums
from repro.linalg.distances import assign_labels, row_norms_sq
from repro.mapreduce.jobs.lloyd_job import AGG_KEY, PHI_KEY, make_lloyd_job
from repro.mapreduce.kmeans_mr import mr_lloyd
from repro.mapreduce.runtime import LocalMapReduceRuntime

N_SPLITS = 6


def _per_cluster_lloyd(X, centers, n_splits, max_iter):
    """The per-cluster record fold, one Lloyd round after another."""
    bounds = np.linspace(0, X.shape[0], n_splits + 1).astype(int)
    k = centers.shape[0]

    def split_d2(centers):
        for lo, hi in zip(bounds, bounds[1:]):
            block = X[lo:hi]
            yield block, *assign_labels(
                block, centers, x_norms_sq=row_norms_sq(block),
                return_sq_dists=True,
            )

    phi = float("inf")
    for _ in range(max_iter):
        phis, records = [], {}
        for block, labels, d2 in split_d2(centers):
            phis.append(float(d2.sum()))
            sums, counts = cluster_sums(block, labels, k), cluster_sizes(labels, k)
            for j in np.flatnonzero(counts):
                record = np.concatenate([sums[j], counts[j : j + 1]])
                records.setdefault(int(j), []).append(record)
        phi = float(sum(phis))
        new_centers = centers.copy()
        for j, values in records.items():
            total = values[0].copy()
            for v in values[1:]:
                total += v
            new_centers[j] = total[:-1] / total[-1]
        shift = new_centers - centers
        centers = new_centers
        if float(np.max(np.einsum("ij,ij->i", shift, shift))) <= 0.0:
            break
    else:
        phi = float(sum(float(d2.sum()) for _, _, d2 in split_d2(centers)))
    return centers, phi


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(11)
    # Clusters laid out in row order, so most splits hold only some of
    # them and the blocks carry rows of zeros; one start center is far
    # from every point and stays empty.
    means = rng.normal(scale=6.0, size=(5, 4))
    X = np.vstack([m + rng.normal(size=(90, 4)) for m in means])
    start = np.vstack([X[::75][:5], [[1e3, 1e3, 1e3, 1e3]]])
    return X, start


@pytest.fixture(scope="module")
def oracle(data):
    X, start = data
    return _per_cluster_lloyd(X, start, N_SPLITS, max_iter=4)


def _backend(name):
    if name == "process":
        if not hasattr(os, "fork"):
            pytest.skip("process backend needs fork")
        return ProcessBackend()
    return {"serial": SerialBackend, "thread": ThreadBackend}[name]()


@pytest.mark.parametrize(
    "name, budget",
    [("serial", None), ("thread", None), ("process", None), ("thread", 512)],
    ids=["serial", "thread", "process", "spill"],
)
def test_mr_lloyd_equals_the_per_cluster_fold(data, oracle, name, budget):
    X, start = data
    backend = _backend(name)
    try:
        with LocalMapReduceRuntime(
            X, n_splits=N_SPLITS, seed=0, workers=2, backend=backend,
            shuffle_budget=budget,
        ) as runtime:
            centers, phi, n_iter = mr_lloyd(runtime, start, max_iter=4)
            lloyd_jobs = [s for s in runtime.job_log if s.name == "lloyd/iteration"]
    finally:
        backend.shutdown()
    assert centers.tobytes() == oracle[0].tobytes()
    assert phi == oracle[1]
    assert n_iter == len(lloyd_jobs) == 4
    # The empty cluster kept its start center.
    assert centers[-1].tobytes() == start[-1].tobytes()
    # Two records per split: the partial phi and the block.
    assert [s.shuffle_records for s in lloyd_jobs] == [2 * N_SPLITS] * 4
    if budget is not None:
        assert sum(s.spill_files for s in lloyd_jobs) > 0


def test_split_block_shape_and_point_granularity_agree(data):
    X, start = data
    with LocalMapReduceRuntime(X, n_splits=N_SPLITS, seed=0) as runtime:
        split = runtime.run_job(make_lloyd_job(start))
        point = runtime.run_job(make_lloyd_job(start, granularity="point"))
    (block,) = split.output[AGG_KEY]
    assert block.shape == (start.shape[0], X.shape[1] + 1)
    assert block[:, -1].sum() == X.shape[0]
    for key, values in point.output.items():
        if key == PHI_KEY:
            continue
        _, j = key
        ((centroid, count),) = values
        assert count == block[j, -1]
        np.testing.assert_allclose(centroid, block[j, :-1] / count, rtol=1e-12)
    assert point.stats.shuffle_records > split.stats.shuffle_records
