"""The tiled, in-place distance kernels reproduce the frozen expression.

Every dense kernel in :mod:`repro.linalg.distances` used to evaluate one
expression per engine chunk,

    d2 = x_norms_sq[:, None] - 2.0 * (block @ C.T) + c_norms_sq[None, :]

clamped at zero over the whole block.  The kernels now fold that
expansion in place, tile by tile, through one reused buffer.  The oracle
below is a frozen copy of the old per-chunk kernels; every output must
match it byte for byte (``tobytes()``), dtype included, across tile
edges, engine chunkings, worker counts, the clamp and ties.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.linalg.distances import (
    _TILE_BYTES,
    _TILE_MIN_ROWS,
    assign_labels,
    block_sq_dists,
    min_sq_dists,
    row_norms_sq,
    update_min_sq_dists,
    update_min_sq_dists_argmin,
)
from repro.linalg.engine import get_engine, set_engine, use_engine
from repro.utils.chunking import chunk_slices


@pytest.fixture(autouse=True)
def _reset_engine():
    previous = set_engine(None)
    yield
    set_engine(previous)


# -- the frozen oracle ------------------------------------------------------


def oracle_block(block, C, xn, cn):
    d2 = xn[:, None] - 2.0 * (block @ C.T) + cn[None, :]
    np.maximum(d2, 0.0, out=d2)
    return d2


def oracle_chunks(n, k, chunk_bytes):
    rows = get_engine().resolve_chunk_rows(8 * max(1, k), chunk_bytes)
    return chunk_slices(n, rows)


def _norms(X, sl, norms):
    return row_norms_sq(X[sl]) if norms is None else norms[sl]


def oracle_min(X, C, norms, chunk_bytes):
    out = np.empty(X.shape[0], dtype=np.float64)
    cn = row_norms_sq(C)
    for sl in oracle_chunks(X.shape[0], C.shape[0], chunk_bytes):
        out[sl] = oracle_block(X[sl], C, _norms(X, sl, norms), cn).min(axis=1)
    return out


def oracle_update(X, C, current, norms, chunk_bytes):
    cn = row_norms_sq(C)
    for sl in oracle_chunks(X.shape[0], C.shape[0], chunk_bytes):
        d2 = oracle_block(X[sl], C, _norms(X, sl, norms), cn)
        np.minimum(current[sl], d2.min(axis=1), out=current[sl])
    return current


def oracle_update_argmin(X, C, current, nearest, offset, norms, chunk_bytes):
    cn = row_norms_sq(C)
    for sl in oracle_chunks(X.shape[0], C.shape[0], chunk_bytes):
        d2 = oracle_block(X[sl], C, _norms(X, sl, norms), cn)
        idx = d2.argmin(axis=1)
        best_new = np.take_along_axis(d2, idx[:, None], axis=1).ravel()
        cur, near = current[sl], nearest[sl]
        improved = best_new < cur
        cur[improved] = best_new[improved]
        near[improved] = idx[improved] + offset
    return current, nearest


def oracle_assign(X, C, norms, chunk_bytes):
    labels = np.empty(X.shape[0], dtype=np.int64)
    best = np.empty(X.shape[0], dtype=np.float64)
    cn = row_norms_sq(C)
    for sl in oracle_chunks(X.shape[0], C.shape[0], chunk_bytes):
        d2 = oracle_block(X[sl], C, _norms(X, sl, norms), cn)
        idx = d2.argmin(axis=1)
        labels[sl] = idx
        best[sl] = np.take_along_axis(d2, idx[:, None], axis=1).ravel()
    return labels, best


# -- data -------------------------------------------------------------------


def tile_rows(k):
    """Nominal tile height at ``k`` centers (``k == 1`` is never cut)."""
    return max(_TILE_MIN_ROWS, _TILE_BYTES // (8 * k))


def make_data(rows, d, k, dtype, seed=0):
    """Points, centers and a separate set of earlier centers.

    Offsetting every coordinate by 30 makes the norms large, so rows
    that copy a center exactly come out slightly negative through the
    expansion (the clamp).  Center 2 duplicates center 1 (exact ties),
    and each center of the first half has a twin one ulp away in the
    second half: a row copying it can come out a round-off negative to
    both, the clamp turns both into zero, and the lower index must win.
    """
    rng = np.random.default_rng(seed)
    C = (rng.normal(size=(k, d)) + 30.0).astype(dtype)
    if k >= 3:
        C[2] = C[1]
    half = k // 2
    C[half : 2 * half] = np.nextafter(C[:half], np.inf)
    X = (rng.normal(size=(rows, d)) + 30.0).astype(dtype)
    hits = X[::3]
    hits[:] = C[rng.integers(k, size=hits.shape[0])]
    C_old = (rng.normal(size=(max(1, k // 2), d)) + 30.0).astype(dtype)
    return X, C, C_old


def assert_same_bits(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    if got.tobytes() != want.tobytes():
        diff = int(np.count_nonzero(got != want))
        pytest.fail(f"{diff} of {want.size} values differ from the oracle")


#: (d, k, rows).  Rows sit at a tile edge (tile - 1, tile, tile + 1), at
#: one row, and across several tiles and engine chunks.  At d = 4 the
#: tile GEMMs stay under 10**6 multiply-adds while 4097 rows go over;
#: d = 16 and 128 put every tile above.
#: k = 1024 tiles at the row floor; k = 1 is a matrix-vector product,
#: which OpenBLAS splits across its threads by row count.
CASES = [
    *[(16, 64, tile_rows(64) + r) for r in (-1, 0, 1)],
    (16, 64, 1),
    *[(4, 64, tile_rows(64) + r) for r in (-1, 1, tile_rows(64) + 1)],
    (128, 64, 2 * tile_rows(64) + 1),
    (40, 30, 7),
    (40, 30, 300),
    (40, 30, 2 * tile_rows(30) + 1),
    (3, 1, 1),
    (3, 1, 300),
    (32, 1, 2 * tile_rows(1) + 1),
    *[(16, 1024, r) for r in (tile_rows(1024) - 1, tile_rows(1024) + 1, 1)],
    (16, 1024, 6 * tile_rows(1024) + 1),
]


def chunk_settings(k, rows):
    """``chunk_bytes`` to run: the default, plus smaller engine chunks.

    Past two tiles, chunks of 2.5 tiles put several tile-cut chunks in
    one call.  On small inputs, 1 byte is one row per chunk, and 512
    bytes a few rows per chunk where ``k`` is small enough (64 rows at
    ``k = 1``, 2 at ``k = 30``; from ``k = 64`` it is one row again).
    """
    settings = [None]
    if rows > 2 * tile_rows(k):
        settings.append(int(2.5 * tile_rows(k)) * 8 * k)
    if rows <= 300:
        settings.append(1)
        if 512 // (8 * k) >= 2:
            settings.append(512)
    return settings


def test_floor_and_tiles_in_cases():
    assert tile_rows(1024) == _TILE_MIN_ROWS
    assert tile_rows(64) > _TILE_MIN_ROWS


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize(
    "d,k,rows", CASES, ids=[f"d{d}-k{k}-n{r}" for d, k, r in CASES]
)
def test_kernels_match_frozen_expression(d, k, rows, dtype):
    # With seed 3, cutting the k = 1 case's matrix-vector product into
    # tiles changes the rounding of a row (under the default BLAS threads).
    X, C, C_old = make_data(rows, d, k, dtype, seed=3)
    xn, cn = row_norms_sq(X), row_norms_sq(C)
    assert_same_bits(block_sq_dists(X, C, xn, cn), oracle_block(X, C, xn, cn))
    base = oracle_min(X, C_old, None, None)
    base_near = oracle_assign(X, C_old, None, None)[0]
    offset = C_old.shape[0]
    for chunk_bytes in chunk_settings(k, rows):
        for workers in (1, 2):
            norms = xn if workers == 2 else None
            with use_engine(workers=workers):
                assert_same_bits(
                    min_sq_dists(X, C, x_norms_sq=norms, chunk_bytes=chunk_bytes),
                    oracle_min(X, C, norms, chunk_bytes),
                )
                got = assign_labels(
                    X, C, x_norms_sq=norms, chunk_bytes=chunk_bytes,
                    return_sq_dists=True,
                )
                want = oracle_assign(X, C, norms, chunk_bytes)
                assert_same_bits(got[0], want[0])
                assert_same_bits(got[1], want[1])
                assert_same_bits(
                    assign_labels(X, C, x_norms_sq=norms, chunk_bytes=chunk_bytes),
                    want[0],
                )
                assert_same_bits(
                    update_min_sq_dists(
                        X, C, base.copy(), x_norms_sq=norms, chunk_bytes=chunk_bytes
                    ),
                    oracle_update(X, C, base.copy(), norms, chunk_bytes),
                )
                got = update_min_sq_dists_argmin(
                    X, C, base.copy(), base_near.copy(), offset=offset,
                    x_norms_sq=norms, chunk_bytes=chunk_bytes,
                )
                want = oracle_update_argmin(
                    X, C, base.copy(), base_near.copy(), offset, norms, chunk_bytes
                )
                assert_same_bits(got[0], want[0])
                assert_same_bits(got[1], want[1])


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
def test_data_exercises_clamp_and_ties(dtype):
    X, C, _ = make_data(tile_rows(64) + 1, 16, 64, dtype)
    xn, cn = row_norms_sq(X), row_norms_sq(C)
    raw = xn[:, None] - 2.0 * (X @ C.T) + cn[None, :]
    d2 = oracle_block(X, C, xn, cn)
    labels = d2.argmin(axis=1)
    # Clamping before argmin changes some labels: the identity tests
    # would see a kernel that clamped after it.
    assert (raw.argmin(axis=1) != labels).any()
    assert (d2[:, 1] == d2[:, 2]).all()
    assert not (labels == 2).any()  # the duplicate never wins its tie


class TestWiderNormsAreNotNarrowed:
    """float64 ``x_norms_sq`` with float32 points widens, as it always did.

    An in-place ``+=`` of float64 norms into a float32 GEMM buffer would
    round every sum to float32; the kernels must return the old dtype
    and bytes instead.
    """

    @pytest.fixture
    def data(self):
        # Centered data: the norms and the product differ in scale, so a
        # sum rounded in the wrong dtype shows in the bits.
        rng = np.random.default_rng(1)
        X = rng.normal(size=(tile_rows(64) + 1, 16)).astype(np.float32)
        C = rng.normal(size=(64, 16)).astype(np.float32)
        C_old = rng.normal(size=(32, 16)).astype(np.float32)
        return X, C, C_old, row_norms_sq(X).astype(np.float64)

    def test_block_sq_dists(self, data):
        X, C, _, xn64 = data
        cn32 = row_norms_sq(C)
        got = block_sq_dists(X, C, xn64, cn32)
        assert got.dtype == np.float64
        assert_same_bits(got, oracle_block(X, C, xn64, cn32))
        # The other way round: float32 sum first, widened by the centers.
        xn32, cn64 = row_norms_sq(X), cn32.astype(np.float64)
        assert_same_bits(
            block_sq_dists(X, C, xn32, cn64), oracle_block(X, C, xn32, cn64)
        )

    def test_min_and_assign(self, data):
        X, C, _, xn64 = data
        assert_same_bits(
            min_sq_dists(X, C, x_norms_sq=xn64), oracle_min(X, C, xn64, None)
        )
        got = assign_labels(X, C, x_norms_sq=xn64, return_sq_dists=True)
        want = oracle_assign(X, C, xn64, None)
        assert_same_bits(got[0], want[0])
        assert_same_bits(got[1], want[1])

    def test_updates(self, data):
        X, C, C_old, xn64 = data
        base = oracle_min(X, C_old, xn64, None)
        near = oracle_assign(X, C_old, xn64, None)[0]
        assert_same_bits(
            update_min_sq_dists(X, C, base.copy(), x_norms_sq=xn64),
            oracle_update(X, C, base.copy(), xn64, None),
        )
        got = update_min_sq_dists_argmin(
            X, C, base.copy(), near.copy(), offset=C_old.shape[0], x_norms_sq=xn64
        )
        want = oracle_update_argmin(
            X, C, base.copy(), near.copy(), C_old.shape[0], xn64, None
        )
        assert_same_bits(got[0], want[0])
        assert_same_bits(got[1], want[1])
