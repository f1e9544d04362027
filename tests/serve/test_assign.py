"""assign_serve: bit-identity to the naive kernel, in labels, distances and work."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.gauss_mixture import make_gauss_mixture
from repro.exceptions import ValidationError
from repro.linalg.distances import _as_working, assign_labels
from repro.linalg.engine import Engine, use_engine
from repro.serve import ServedModel, assign_serve


@pytest.fixture(scope="module")
def workload():
    ds = make_gauss_mixture(seed=11, n=2000, d=8, k=24, R=8.0)
    return ds.X, ds.true_centers


def naive(X, centers):
    Xw, Cw = _as_working(np.asarray(X), np.asarray(centers))
    return assign_labels(Xw, Cw, return_sq_dists=True)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_labels_bit_identical_to_naive(workload, dtype):
    X, centers = workload
    model = ServedModel.freeze(1, centers.astype(dtype))
    result = assign_serve(X.astype(dtype), model)
    labels, d2 = naive(X.astype(dtype), centers.astype(dtype))
    np.testing.assert_array_equal(result.labels, labels)
    np.testing.assert_array_equal(result.sq_dists, d2)


def test_prune_false_is_exactly_the_naive_path(workload):
    """Serving prunes nothing: every call is the naive path, bits and work."""
    X, centers = workload
    model = ServedModel.freeze(1, centers)
    result = assign_serve(X, model)
    labels, d2 = naive(X, centers)
    np.testing.assert_array_equal(result.labels, labels)
    np.testing.assert_array_equal(result.sq_dists, d2)
    assert result.n_dist_evals == X.shape[0] * centers.shape[0]
    with pytest.raises(TypeError):
        assign_serve(X, model, prune=False)


def test_micro_batch_split_invariance(workload):
    X, centers = workload
    model = ServedModel.freeze(1, centers)
    full = assign_serve(X, model).labels
    for pieces in (2, 7, 23):
        got = np.concatenate(
            [assign_serve(part, model).labels for part in np.array_split(X, pieces)]
        )
        np.testing.assert_array_equal(got, full)


def test_worker_count_invariance(workload):
    X, centers = workload
    model = ServedModel.freeze(1, centers)
    with use_engine(Engine(workers=1)):
        serial = assign_serve(X, model)
    with use_engine(Engine(workers=4, chunk_bytes=1 << 16)):
        parallel = assign_serve(X, model)
    np.testing.assert_array_equal(serial.labels, parallel.labels)
    assert serial.n_dist_evals == parallel.n_dist_evals


def test_duplicate_centers_tie_break_matches_naive():
    rng = np.random.default_rng(5)
    centers = rng.normal(size=(6, 3))
    centers = np.vstack([centers, centers, centers[0]])  # exact duplicates
    X = np.vstack([centers + rng.normal(0, 1e-9, size=centers.shape),
                   rng.normal(size=(50, 3)), centers])
    model = ServedModel.freeze(1, centers)
    result = assign_serve(X, model)
    labels, _ = naive(X, centers)
    np.testing.assert_array_equal(result.labels, labels)


def test_points_on_centers(workload):
    _, centers = workload
    model = ServedModel.freeze(1, centers)
    result = assign_serve(centers, model)
    labels, _ = naive(centers, centers)
    np.testing.assert_array_equal(result.labels, labels)


def test_single_point_and_empty(workload):
    X, centers = workload
    model = ServedModel.freeze(1, centers)
    one = assign_serve(X[:1], model)
    labels, _ = naive(X[:1], centers)
    np.testing.assert_array_equal(one.labels, labels)
    empty = assign_serve(X[:0], model)
    assert empty.labels.shape == (0,)
    assert empty.sq_dists.shape == (0,)
    assert empty.n_dist_evals == 0


def test_tiny_k_falls_back_to_full_rows():
    rng = np.random.default_rng(6)
    centers = rng.normal(size=(2, 4))
    X = rng.normal(size=(30, 4))
    model = ServedModel.freeze(1, centers)
    result = assign_serve(X, model)
    labels, _ = naive(X, centers)
    np.testing.assert_array_equal(result.labels, labels)
    assert result.n_dist_evals == X.shape[0] * centers.shape[0]


def test_dimension_mismatch_raises(workload):
    _, centers = workload
    model = ServedModel.freeze(1, centers)
    with pytest.raises(ValidationError):
        assign_serve(np.ones((3, centers.shape[1] + 1)), model)
    with pytest.raises(ValidationError):
        assign_serve(np.ones(centers.shape[1]), model)  # 1-d


def test_result_carries_model_version(workload):
    X, centers = workload
    model = ServedModel.freeze(42, centers)
    assert assign_serve(X[:5], model).version == 42
