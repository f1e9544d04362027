"""Step 7 from the rounds' argmin gives a full assignment's weights, bit for bit.

``ScalableKMeans`` keeps each point's nearest candidate while it folds the
rounds, and weights the candidates from that column instead of a full
``assign_labels(X, candidates)`` pass.  The rounds' distances agree with
that pass only to round-off (candidate 0's come from a matrix-vector
product, and a GEMM rounds a column by where it sits in the product), so
near ties are re-assigned in the full pass's own tiles.  These tests run
the data of the tile-identity suite (``tests/linalg/test_tile_identity.py``):
duplicate and one-ulp-twin candidates and rows that copy one, where the
raw rounds' argmin does disagree with the full pass.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.init_scalable as init_scalable
from repro.core.init_scalable import ScalableKMeans
from repro.linalg.centroids import cluster_sizes
from repro.linalg.distances import _assign_labels_at, assign_labels, row_norms_sq
from repro.linalg.engine import set_engine, use_engine


@pytest.fixture(autouse=True)
def _reset_engine():
    previous = set_engine(None)
    yield
    set_engine(previous)


def tie_heavy(rows, d, k, seed=0):
    """The tile-identity suite's recipe, with its centers among the points.

    Offsetting every coordinate by 30 makes the norms large, so a row
    that copies a center comes out a round-off negative or positive.
    Center 2 duplicates center 1, each center of the first half has a
    twin one ulp away in the second half, and every third row copies a
    center; the centers are appended as rows so sampling can pick them.
    """
    rng = np.random.default_rng(seed)
    C = rng.normal(size=(k, d)) + 30.0
    C[2] = C[1]
    half = k // 2
    C[half : 2 * half] = np.nextafter(C[:half], np.inf)
    X = rng.normal(size=(rows, d)) + 30.0
    X[::3] = C[rng.integers(k, size=X[::3].shape[0])]
    return np.vstack([X, C])


def full_pass_weights(X, result, weights):
    m = result.candidates.shape[0]
    return cluster_sizes(assign_labels(X, result.candidates), m, weights=weights)


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes(), f"{np.count_nonzero(got != want)} differ"


@pytest.mark.parametrize("d", [4, 16, 128])
@pytest.mark.parametrize("sampling", ["independent", "exact"])
@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
def test_weights_equal_a_full_assignment(d, sampling, weighted):
    X = tie_heavy(300, d, 30)
    n = X.shape[0]
    w = np.random.default_rng(1).integers(1, 4, size=n).astype(float) if weighted else None
    reassigned = 0
    for l in (8.0, float(n)):
        for seed in range(3):
            init = ScalableKMeans(oversampling=l, n_rounds=5, sampling=sampling)
            result = init.run(X, 5, weights=w, seed=seed)
            want = full_pass_weights(X, result, np.ones(n) if w is None else w)
            assert_same_bits(result.candidate_weights, want)
            reassigned += result.n_passes - result.n_rounds - 1
    # The near-tie path ran: on this data the rounds' argmin alone is not
    # the full pass's.
    assert reassigned > 0


@pytest.mark.parametrize("workers,chunk_bytes", [(1, 1 << 14), (2, None), (2, 1 << 14)])
def test_weights_equal_a_full_assignment_under_any_engine(workers, chunk_bytes):
    X = tie_heavy(600, 16, 30)
    with use_engine(workers=workers, chunk_bytes=chunk_bytes):
        for seed in range(3):
            result = ScalableKMeans(oversampling=300.0, n_rounds=4).run(X, 5, seed=seed)
            want = full_pass_weights(X, result, np.ones(X.shape[0]))
            assert_same_bits(result.candidate_weights, want)


def test_zero_rounds_and_early_exit():
    X = tie_heavy(300, 16, 30)
    result = ScalableKMeans(oversampling=8.0, n_rounds=0).run(X, 5, seed=0)
    assert result.n_candidates == 1
    assert_same_bits(result.candidate_weights, full_pass_weights(X, result, np.ones(X.shape[0])))
    # Three distinct points: phi reaches 0 and the rounds stop early.
    X = np.repeat(np.eye(3) * 10.0 + 30.0, 20, axis=0)
    result = ScalableKMeans(oversampling=15.0, n_rounds=50).run(X, 3, seed=0)
    assert result.n_rounds < 50
    assert_same_bits(result.candidate_weights, full_pass_weights(X, result, np.ones(X.shape[0])))


def test_default_dtype_makes_no_assign_labels_call(monkeypatch, blobs):
    calls = []

    def spy(*args, **kwargs):
        calls.append(args[1].shape[0])
        return assign_labels(*args, **kwargs)

    monkeypatch.setattr(init_scalable, "assign_labels", spy)
    X, _ = blobs
    result = ScalableKMeans(n_rounds=5).run(X, 5, seed=0)
    assert calls == []
    assert result.n_passes == result.n_rounds + 1
    # A narrower working dtype still pays its float64 pass.
    narrow = ScalableKMeans(n_rounds=5, working_dtype="float32").run(X, 5, seed=0)
    assert calls == [narrow.n_candidates]


@pytest.mark.parametrize("k", [1, 30, 200])
@pytest.mark.parametrize("workers,chunk_bytes", [(1, None), (2, 1 << 15), (1, 1)])
def test_assign_labels_at_reads_the_full_pass(k, workers, chunk_bytes):
    X = tie_heavy(700, 16, 30, seed=2)
    C = X[np.random.default_rng(3).choice(X.shape[0], size=k, replace=False)]
    xn = row_norms_sq(X)
    rows = np.flatnonzero(np.random.default_rng(4).random(X.shape[0]) < 0.1)
    with use_engine(workers=workers, chunk_bytes=chunk_bytes):
        want = assign_labels(X, C, x_norms_sq=xn)[rows]
        assert_same_bits(_assign_labels_at(X, C, rows, xn), want)
        assert _assign_labels_at(X, C, rows[:0], xn).shape == (0,)
