"""The shared tile reduction is clamp-then-reduce, bit for bit.

Every dense distance kernel reduces its tiles with
:func:`repro.linalg.distances._tile_argmin`, which clamps only the rows
whose minimum is negative; the Hamerly survivor pass and the gap-keeping
fold add :func:`~repro.linalg.distances._tile_top2`'s runner-up.  Each
must give exactly what clamping the whole tile at zero and then taking
``argmin`` / ``min`` / the second smallest entry gives.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.linalg.distances import _tile_argmin, _tile_top2


def clamped_oracle(d2):
    c = np.maximum(d2, 0.0)
    idx = c.argmin(axis=1)
    best = c.min(axis=1)
    second = (
        np.partition(c, 1, axis=1)[:, 1]
        if c.shape[1] >= 2
        else np.full(c.shape[0], np.inf, dtype=c.dtype)
    )
    return idx, best, second


def hand_tile(dtype):
    tiny = np.finfo(dtype).tiny
    return np.array(
        [
            [-3e-6, -1e-7, -2e-6, -tiny],  # every entry negative
            [5.0, -1e-7, 0.0, -2e-6],  # negatives clamp into a tie with a later zero
            [np.inf, np.inf, np.inf, np.inf],  # a row of +inf
            [4.0, 1.0, 1.0, 3.0],  # a tie at a positive value
            [2.0, 0.0, -0.5, 0.0],  # zeros on both sides of a negative
            [7.0, 6.0, 5.0, 4.0],  # argmin at the last column
        ],
        dtype=dtype,
    )


def assert_same_bits(got, want):
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
def test_hand_built_rows(dtype):
    d2 = hand_tile(dtype)
    idx, best, second = clamped_oracle(d2)
    got_idx, got_best = _tile_argmin(d2)
    assert_same_bits(got_idx, idx)
    assert_same_bits(got_best, best)
    np.testing.assert_array_equal(d2, hand_tile(dtype))  # not modified
    got = _tile_top2(d2.copy())
    for g, w in zip(got, (idx, best, second)):
        assert_same_bits(g, w)
    # The rows above, spelled out.
    assert idx.tolist() == [0, 1, 0, 1, 1, 3]
    assert best[:3].tolist() == [0.0, 0.0, np.inf]
    assert second[:4].tolist() == [0.0, 0.0, np.inf, 1.0]


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("k", [1, 2, 7, 64])
def test_random_tiles_with_round_off_negatives(dtype, k):
    rng = np.random.default_rng(k)
    d2 = rng.normal(scale=1e-6, size=(300, k)).astype(dtype)
    d2[::5] = np.abs(d2[::5]) + 1.0
    d2[1::7, -1] = 0.0
    want = clamped_oracle(d2)
    for got, w in zip(_tile_argmin(d2), want):
        assert_same_bits(got, w)
    for got, w in zip(_tile_top2(d2.copy()), want):
        assert_same_bits(got, w)


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
def test_fold_keeps_the_runner_up_gap(sparse):
    """``gap`` is the margin from each point's nearest center to its next,
    over every center folded so far, on the values the fold computed."""
    from repro.linalg.distances import pairwise_sq_dists, update_min_sq_dists_argmin

    rng = np.random.default_rng(0)
    X = rng.normal(size=(200, 6))
    X[::4] = 0.0
    C = np.vstack([X[:10], X[5:8], rng.normal(size=(5, 6))])  # copies and duplicates
    if sparse:
        X = pytest.importorskip("scipy.sparse").csr_matrix(X)
    first, second = C[:11], C[11:]
    cur = np.full(200, np.inf)
    near = np.zeros(200, dtype=np.int64)
    gap = np.full(200, np.inf)
    update_min_sq_dists_argmin(X, first, cur, near, offset=0, gap=gap)
    update_min_sq_dists_argmin(X, second, cur, near, offset=11, gap=gap)
    # Each fold is one product of the same shape as here, so the values match.
    D = np.hstack([pairwise_sq_dists(X, first), pairwise_sq_dists(X, second)])
    ordered = np.sort(D, axis=1)
    np.testing.assert_array_equal(cur, ordered[:, 0])
    np.testing.assert_array_equal(near, D.argmin(axis=1))
    np.testing.assert_array_equal(gap, ordered[:, 1] - ordered[:, 0])
    assert (gap == 0.0).any() and (gap > 0.0).any()
