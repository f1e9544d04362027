"""``cluster_sums`` reproduces the frozen bincount fold byte for byte.

``cluster_sums`` used to build one flattened-index array per fixed row
block and scatter-add the block with one ``np.bincount``.  It now folds
each block in cache-sized sub-blocks with ``np.add.at`` into one
accumulator.  Both make the same per-bin additions, in the same order,
starting from ``+0.0``.  The oracle below is a frozen copy of the old
fold; every output must match it byte for byte (``tobytes()``) across
block and sub-block edges, signed zeros, empty clusters, weights, dtypes,
worker counts and explicit block budgets.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.linalg.centroids import _SUMS_CHUNK_BYTES, _SUMS_SUB_BYTES, cluster_sums
from repro.linalg.engine import set_engine, use_engine
from repro.linalg.sparse import HAVE_SCIPY
from repro.utils.chunking import chunk_slices, rows_per_chunk


@pytest.fixture(autouse=True)
def _reset_engine():
    previous = set_engine(None)
    yield
    set_engine(previous)


# -- the frozen oracle ------------------------------------------------------


def oracle_sums(X, labels, k, weights=None, chunk_bytes=None):
    if weights is not None and not np.any(weights != 1.0):
        weights = None
    n, d = X.shape
    dim_offsets = np.arange(d, dtype=np.int64)
    budget = _SUMS_CHUNK_BYTES if chunk_bytes is None else chunk_bytes
    total = None
    for sl in chunk_slices(n, rows_per_chunk(24 * d, budget)):
        block = X[sl]
        vals = block if weights is None else block * weights[sl][:, None]
        flat = (labels[sl].astype(np.int64) * d)[:, None] + dim_offsets
        part = np.bincount(
            flat.ravel(), weights=np.ascontiguousarray(vals, dtype=np.float64).ravel(),
            minlength=k * d,
        )
        total = part if total is None else total + part
    return total.reshape(k, d)


def block_rows(d):
    return rows_per_chunk(24 * d, _SUMS_CHUNK_BYTES)


def sub_rows(d):
    return max(1, _SUMS_SUB_BYTES // (8 * d))


def data(n, d, k, seed=0):
    rng = np.random.default_rng(seed)
    # Wide exponents so the order of additions shows in the low bits.
    X = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-3, 4, (n, 1))
    return X, rng.integers(0, k, n)


def assert_identical(got, want):
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# -- boundaries -------------------------------------------------------------

D = 128
BLOCK, SUB = block_rows(D), sub_rows(D)


def test_blocks_hold_a_ragged_number_of_sub_blocks():
    # Otherwise the boundary cases below would not reach a short last
    # sub-block inside a block.
    assert BLOCK > 2 * SUB and BLOCK % SUB != 0


@pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
def test_block_boundary(n):
    X, labels = data(n, D, 7)
    assert_identical(cluster_sums(X, labels, 7), oracle_sums(X, labels, 7))


@pytest.mark.parametrize("n", [SUB - 1, SUB, SUB + 1, BLOCK + SUB - 1, BLOCK + SUB + 1])
def test_sub_block_boundary(n):
    X, labels = data(n, D, 5, seed=1)
    assert_identical(cluster_sums(X, labels, 5), oracle_sums(X, labels, 5))


# -- values -----------------------------------------------------------------


def test_negative_zero_rows_and_empty_clusters():
    n, d, k = 3 * sub_rows(8) + 5, 8, 6
    X, labels = data(n, d, k, seed=2)
    labels[labels == 4] = 3  # cluster 4 is empty
    X[labels == 5] = -0.0  # cluster 5 sums only -0.0
    X[::3] = -0.0
    X[1::7, 2] = -0.0
    got = cluster_sums(X, labels, k)
    assert_identical(got, oracle_sums(X, labels, k))
    assert not np.signbit(got[4:]).any()  # +0.0 + -0.0 is +0.0


@pytest.mark.parametrize("kind", ["unit", "integer", "int64", "fractional"])
def test_weights(kind):
    n, d, k = BLOCK + SUB + 3, 16, 9
    X, labels = data(n, d, k, seed=3)
    rng = np.random.default_rng(4)
    weights = {
        "unit": np.ones(n),
        "integer": rng.integers(1, 20, n).astype(np.float64),
        "int64": rng.integers(1, 20, n),
        "fractional": rng.random(n) + 0.1,
    }[kind]
    assert_identical(
        cluster_sums(X, labels, k, weights=weights),
        oracle_sums(X, labels, k, weights=weights),
    )


def test_float32_points():
    n, d, k = 2 * sub_rows(32) + 11, 32, 4
    X, labels = data(n, d, k, seed=5)
    X = X.astype(np.float32)
    assert_identical(cluster_sums(X, labels, k), oracle_sums(X, labels, k))
    # The weighted product stays float32, as X * w rounds it.
    w = (np.random.default_rng(6).random(n) + 0.5).astype(np.float32)
    assert_identical(
        cluster_sums(X, labels, k, weights=w), oracle_sums(X, labels, k, weights=w)
    )


@pytest.mark.parametrize("dtype", [np.int64, np.float64])
def test_integer_valued_points(dtype):
    n, d, k = 2 * sub_rows(8) + 3, 8, 3
    rng = np.random.default_rng(7)
    X = rng.integers(-1000, 1000, (n, d)).astype(dtype)
    labels = rng.integers(0, k, n)
    assert_identical(cluster_sums(X, labels, k), oracle_sums(X, labels, k))


def test_non_contiguous_points():
    X, labels = data(SUB + 9, D, 3, seed=8)
    F = np.asfortranarray(X)
    assert_identical(cluster_sums(F, labels, 3), oracle_sums(X, labels, 3))
    assert_identical(cluster_sums(X[:, ::2], labels, 3), oracle_sums(X[:, ::2], labels, 3))


def test_memory_mapped_points(tmp_path):
    X, labels = data(SUB + 9, D, 3, seed=9)
    path = tmp_path / "X.npy"
    np.save(path, X)
    mapped = np.load(path, mmap_mode="r")
    assert_identical(cluster_sums(mapped, labels, 3), oracle_sums(X, labels, 3))


@pytest.mark.parametrize("k, d", [(1, 8), (6, 1), (1, 1)])
def test_one_cluster_or_one_dimension(k, d):
    n = 2 * sub_rows(d) + 1 if d == 1 else block_rows(d) + 1
    X, labels = data(n, d, k, seed=10)
    assert_identical(cluster_sums(X, labels, k), oracle_sums(X, labels, k))


# -- schedules --------------------------------------------------------------


def test_two_workers():
    n, k = 3 * BLOCK + SUB + 1, 8
    X, labels = data(n, D, k, seed=11)
    w = np.random.default_rng(12).random(n) + 0.25
    with use_engine(workers=2):
        got = cluster_sums(X, labels, k)
        got_w = cluster_sums(X, labels, k, weights=w)
    assert_identical(got, oracle_sums(X, labels, k))
    assert_identical(got_w, oracle_sums(X, labels, k, weights=w))


@pytest.mark.parametrize("chunk_bytes", [24 * D * 100 + 7, 24 * D * (3 * SUB + 5), 1])
def test_explicit_chunk_bytes(chunk_bytes):
    n, k = 4 * SUB + 3, 5
    X, labels = data(n, D, k, seed=13)
    with use_engine(workers=2):
        got = cluster_sums(X, labels, k, chunk_bytes=chunk_bytes)
    assert_identical(got, oracle_sums(X, labels, k, chunk_bytes=chunk_bytes))


# -- the sparse sibling -----------------------------------------------------


@pytest.mark.skipif(not HAVE_SCIPY, reason="scipy not installed")
@pytest.mark.parametrize("n", [SUB + 1, BLOCK + 1])
@pytest.mark.parametrize("weighted", [False, True])
def test_sparse_equals_dense(n, weighted):
    import scipy.sparse as sp

    k = 6
    X, labels = data(n, D, k, seed=14)
    X[np.random.default_rng(15).random(X.shape) < 0.7] = 0.0
    X[::5, 3] = -0.0
    w = np.random.default_rng(16).random(n) + 0.5 if weighted else None
    dense = cluster_sums(X, labels, k, weights=w)
    assert_identical(cluster_sums(sp.csr_matrix(X), labels, k, weights=w), dense)
    assert_identical(dense, oracle_sums(X, labels, k, weights=w))
