"""``cluster_sums`` reproduces the frozen bincount fold byte for byte.

``cluster_sums`` used to build one flattened-index array per fixed row
block and scatter-add the block with one ``np.bincount``.  It now adds
each block by one of two routes: cache-sized sub-blocks folded with
``np.add.at`` into one accumulator, or (with scipy, for ``d`` at least
``_ONE_HOT_MIN_D``) one one-hot CSR matrix times the block.  All make the
same per-bin additions, in the same order, starting from ``+0.0``.  The
oracle below is a frozen copy of the old fold; every case runs on each
route, forcing it whatever ``d`` is, and every output must match the
oracle byte for byte (``tobytes()``) across block and sub-block edges,
signed zeros, empty clusters, weights, dtypes, worker counts, explicit
block budgets and labels past the int16 range.  Without scipy only the
fold runs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.linalg import centroids
from repro.linalg import sparse as linalg_sparse
from repro.linalg.centroids import (
    _ONE_HOT_MIN_D,
    _SUMS_CHUNK_BYTES,
    _SUMS_SUB_BYTES,
    cluster_sums,
)
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


#: The routes a dense input can take; the one-hot product needs scipy.
ROUTES = ("fold", "one-hot") if HAVE_SCIPY else ("fold",)


def sums_on(route, X, labels, k, **kwargs):
    """``cluster_sums`` with ``route`` forced, whatever ``d`` is."""
    saved = centroids._ONE_HOT_MIN_D
    centroids._ONE_HOT_MIN_D = 0 if route == "one-hot" else np.iinfo(np.int64).max
    try:
        return cluster_sums(X, labels, k, **kwargs)
    finally:
        centroids._ONE_HOT_MIN_D = saved


def assert_routes(want, X, labels, k, **kwargs):
    """Every route's sums equal ``want`` byte for byte; returns them."""
    got = [sums_on(route, X, labels, k, **kwargs) for route in ROUTES]
    for sums in got:
        assert_identical(sums, want)
    return got


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
    assert_routes(oracle_sums(X, labels, 7), X, labels, 7)


@pytest.mark.parametrize("n", [SUB - 1, SUB, SUB + 1, BLOCK + SUB - 1, BLOCK + SUB + 1])
def test_sub_block_boundary(n):
    X, labels = data(n, D, 5, seed=1)
    assert_routes(oracle_sums(X, labels, 5), X, labels, 5)


# -- values -----------------------------------------------------------------


def test_negative_zero_rows_and_empty_clusters():
    n, d, k = 3 * sub_rows(8) + 5, 8, 6
    X, labels = data(n, d, k, seed=2)
    labels[labels == 4] = 3  # cluster 4 is empty
    X[labels == 5] = -0.0  # cluster 5 sums only -0.0
    X[::3] = -0.0
    X[1::7, 2] = -0.0
    for got in assert_routes(oracle_sums(X, labels, k), X, labels, k):
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
    assert_routes(oracle_sums(X, labels, k, weights=weights), X, labels, k, weights=weights)


def test_float32_points():
    n, d, k = 2 * sub_rows(32) + 11, 32, 4
    X, labels = data(n, d, k, seed=5)
    X = X.astype(np.float32)
    assert_routes(oracle_sums(X, labels, k), X, labels, k)
    # The weighted product stays float32, as X * w rounds it.
    w = (np.random.default_rng(6).random(n) + 0.5).astype(np.float32)
    assert_routes(oracle_sums(X, labels, k, weights=w), X, labels, k, weights=w)


@pytest.mark.parametrize("dtype", [np.int64, np.float64])
def test_integer_valued_points(dtype):
    n, d, k = 2 * sub_rows(8) + 3, 8, 3
    rng = np.random.default_rng(7)
    X = rng.integers(-1000, 1000, (n, d)).astype(dtype)
    labels = rng.integers(0, k, n)
    assert_routes(oracle_sums(X, labels, k), X, labels, k)


def test_non_contiguous_points():
    X, labels = data(SUB + 9, D, 3, seed=8)
    F = np.asfortranarray(X)
    assert_routes(oracle_sums(X, labels, 3), F, labels, 3)
    assert_routes(oracle_sums(X[:, ::2], labels, 3), X[:, ::2], labels, 3)


def test_memory_mapped_points(tmp_path):
    X, labels = data(SUB + 9, D, 3, seed=9)
    path = tmp_path / "X.npy"
    np.save(path, X)
    mapped = np.load(path, mmap_mode="r")
    assert_routes(oracle_sums(X, labels, 3), mapped, labels, 3)


@pytest.mark.parametrize("k, d", [(1, 8), (6, 1), (1, 1)])
def test_one_cluster_or_one_dimension(k, d):
    n = 2 * sub_rows(d) + 1 if d == 1 else block_rows(d) + 1
    X, labels = data(n, d, k, seed=10)
    assert_routes(oracle_sums(X, labels, k), X, labels, k)


@pytest.mark.parametrize("k", [32_767, 32_768])
def test_label_width_edge(k):
    # The largest k whose labels fit int16, and one more; both extremes
    # of the label range are present.
    n, d = 3 * k, 16
    X, labels = data(n, d, k, seed=17)
    labels[:2] = [0, k - 1]
    assert_routes(oracle_sums(X, labels, k), X, labels, k)


@pytest.mark.parametrize("d", [4, 16])
def test_a_block_holding_one_cluster(d):
    # The first block holds cluster 2 only; the rest hold every cluster.
    k, n = 5, 2 * block_rows(d) + 7
    X, labels = data(n, d, k, seed=18)
    labels[: block_rows(d)] = 2
    assert_routes(oracle_sums(X, labels, k), X, labels, k)


@pytest.mark.parametrize("d", [3, 16])
def test_a_bin_of_only_negative_zeros_reads_positive_zero(d):
    k, n = 4, block_rows(d) + sub_rows(d) + 3
    X, labels = data(n, d, k, seed=19)
    X[labels == 1] = -0.0  # every bin of cluster 1
    X[labels == 2, 0] = -0.0  # one bin of cluster 2
    for got in assert_routes(oracle_sums(X, labels, k), X, labels, k):
        assert not np.signbit(got[1]).any() and not np.signbit(got[2, 0])


@pytest.mark.parametrize("d", [_ONE_HOT_MIN_D - 1, _ONE_HOT_MIN_D])
def test_either_side_of_the_cut_off(d, monkeypatch):
    # The default route: the fold below the cut-off, the one-hot product
    # (when scipy imports) from it on.  Both give the oracle's bits.
    products = []
    if HAVE_SCIPY:
        real = linalg_sparse.one_hot

        def counted(*args):
            products.append(args)
            return real(*args)

        monkeypatch.setattr(linalg_sparse, "one_hot", counted)
    n, k = 2 * block_rows(d) + 5, 9
    X, labels = data(n, d, k, seed=20)
    assert_identical(cluster_sums(X, labels, k), oracle_sums(X, labels, k))
    one_hot = HAVE_SCIPY and d >= _ONE_HOT_MIN_D
    assert len(products) == (3 if one_hot else 0)


# -- schedules --------------------------------------------------------------


def test_two_workers():
    n, k = 3 * BLOCK + SUB + 1, 8
    X, labels = data(n, D, k, seed=11)
    w = np.random.default_rng(12).random(n) + 0.25
    with use_engine(workers=2):
        assert_routes(oracle_sums(X, labels, k), X, labels, k)
        assert_routes(oracle_sums(X, labels, k, weights=w), X, labels, k, weights=w)


@pytest.mark.parametrize("chunk_bytes", [24 * D * 100 + 7, 24 * D * (3 * SUB + 5), 1])
def test_explicit_chunk_bytes(chunk_bytes):
    n, k = 4 * SUB + 3, 5
    X, labels = data(n, D, k, seed=13)
    want = oracle_sums(X, labels, k, chunk_bytes=chunk_bytes)
    with use_engine(workers=2):
        assert_routes(want, X, labels, k, chunk_bytes=chunk_bytes)


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
    dense = oracle_sums(X, labels, k, weights=w)
    assert_routes(dense, X, labels, k, weights=w)
    assert_identical(cluster_sums(sp.csr_matrix(X), labels, k, weights=w), dense)
