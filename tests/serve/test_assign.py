"""assign_serve: bit-identity to the naive kernel, in labels, distances and work.

The one-tile route at the end checks each edge of the route against
``assign_labels`` and the frozen per-chunk expression.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.gauss_mixture import make_gauss_mixture
from repro.exceptions import ValidationError
from repro.linalg import sparse as _sparse
from repro.linalg.distances import (
    _TILE_BYTES,
    _TILE_MIN_ROWS,
    _as_working,
    assign_labels,
    row_norms_sq,
)
from repro.linalg.engine import Engine, get_engine, use_engine
from repro.serve import AssignmentService, ModelRegistry, ServedModel, assign_serve
from repro.utils.chunking import chunk_slices


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


# -- the one-tile route -------------------------------------------------------
#
# A request that assign_labels would evaluate as one engine chunk holding
# one tile runs the tile body directly against the model's cached center
# terms; any other request takes the chunked path.  Either way labels and
# sq_dists must be assign_labels's bits, and the route must agree with
# the frozen per-chunk expression the tiled kernels reproduce
# (tests/linalg/test_tile_identity.py).


def oracle(X, centers):
    """The per-chunk expansion, clamped, chunked as the current engine chunks."""
    Xw, Cw = _as_working(np.asarray(X), np.asarray(centers))
    n, k = Xw.shape[0], Cw.shape[0]
    cn = row_norms_sq(Cw)
    labels = np.empty(n, dtype=np.int64)
    best = np.empty(n, dtype=np.float64)
    for sl in chunk_slices(n, get_engine().resolve_chunk_rows(8 * k)):
        block = Xw[sl]
        d2 = row_norms_sq(block)[:, None] - 2.0 * (block @ Cw.T) + cn[None, :]
        np.maximum(d2, 0.0, out=d2)
        labels[sl] = d2.argmin(axis=1)
        best[sl] = d2.min(axis=1)
    return labels, best


def assert_reference_bits(result, X, centers):
    """``result`` holds assign_labels's labels and sq_dists, byte for byte."""
    for want in (naive(X, centers), oracle(X, centers)):
        labels, d2 = want
        assert result.labels.tobytes() == labels.astype(np.int64).tobytes()
        assert result.sq_dists.dtype == np.float64
        assert result.sq_dists.tobytes() == d2.tobytes()


@pytest.fixture
def engine_runs(monkeypatch):
    """Row counts of every ``Engine.run_chunks`` call made while a test runs."""
    runs = []
    original = Engine.run_chunks

    def spy(self, n_rows, *args, **kwargs):
        runs.append(n_rows)
        return original(self, n_rows, *args, **kwargs)

    monkeypatch.setattr(Engine, "run_chunks", spy)
    return runs


def tile_step(k):
    return max(_TILE_MIN_ROWS, _TILE_BYTES // (8 * k))


@pytest.mark.parametrize("k", [256, 1024])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_one_tile_boundary(k, offset, engine_runs):
    """2·step − 1 rows are one tile; 2·step and 2·step + 1 are cut in two."""
    step = tile_step(k)
    # k = 256 steps by the tile budget, k = 1024 by the row floor.
    assert (step == _TILE_MIN_ROWS) == (k == 1024)
    rng = np.random.default_rng(k + offset)
    centers = rng.normal(size=(k, 8))
    X = rng.normal(size=(2 * step + offset, 8))
    result = assign_serve(X, ServedModel.freeze(1, centers))
    assert engine_runs == ([] if offset < 0 else [X.shape[0]])
    assert_reference_bits(result, X, centers)


def test_one_tile_k1(engine_runs):
    """A one-column product is never cut, so any request is one tile."""
    rng = np.random.default_rng(2)
    centers = rng.normal(size=(1, 5))
    X = rng.normal(size=(3000, 5))
    result = assign_serve(X, ServedModel.freeze(1, centers))
    assert engine_runs == []
    assert_reference_bits(result, X, centers)
    assert not result.labels.any()


def test_small_chunk_engine_takes_the_chunked_path(workload, engine_runs):
    X, centers = workload
    model = ServedModel.freeze(1, centers)
    k = centers.shape[0]
    with use_engine(Engine(chunk_bytes=8 * k * 10)):  # 10 rows a chunk
        assert get_engine().resolve_chunk_rows(8 * k) < 64
        result = assign_serve(X[:64], model)
        assert engine_runs == [64]
        assert_reference_bits(result, X[:64], centers)


@pytest.mark.parametrize("model_dtype", [np.float32, np.float64])
@pytest.mark.parametrize("request_dtype", [np.float32, np.float64])
def test_one_tile_dtypes(workload, model_dtype, request_dtype, engine_runs):
    """A float32 model serves float64 requests with lazily upcast terms."""
    X, centers = workload
    model = ServedModel.freeze(1, centers.astype(model_dtype))
    points = X[:64].astype(request_dtype)
    result = assign_serve(points, model)
    assert engine_runs == []
    assert_reference_bits(result, points, model.centers)
    working = np.dtype(model_dtype if model_dtype == request_dtype else np.float64)
    assert working in model._terms


def test_one_dimensional_request_is_one_point(workload):
    X, centers = workload
    with ModelRegistry(shared=False) as registry:
        registry.publish(centers)
        with AssignmentService(registry) as service:
            result = service.assign(X[7])
    assert result.labels.shape == (1,)
    assert_reference_bits(result, X[7:8], centers)


@pytest.mark.skipif(not _sparse.HAVE_SCIPY, reason="needs scipy")
@pytest.mark.parametrize("model_dtype", [np.float32, np.float64])
def test_csr_request_matches_the_sparse_kernel(workload, model_dtype):
    from scipy.sparse import csr_matrix

    X, centers = workload
    points = X[:64].copy()
    points[np.abs(points) < 1.0] = 0.0
    csr = csr_matrix(points.astype(model_dtype))
    model = ServedModel.freeze(1, centers.astype(model_dtype))
    result = assign_serve(csr, model)
    labels, d2 = assign_labels(
        *_sparse._as_working_sparse(csr, model.centers), return_sq_dists=True
    )
    assert result.labels.tobytes() == labels.tobytes()
    assert result.sq_dists.tobytes() == d2.tobytes()


@pytest.mark.parametrize("request_dtype", [np.float32, np.float64])
def test_first_request_after_publish_uses_the_new_terms(workload, request_dtype):
    X, centers = workload
    points = X[:64].astype(request_dtype)
    new_centers = (centers[::-1] + 0.5).astype(np.float32)
    with ModelRegistry(shared=True) as registry:
        registry.publish(centers.astype(np.float32))
        with AssignmentService(registry) as service:
            old = service.assign(points)  # primes the old version's terms
            registry.publish(new_centers)
            new = service.assign(points)
    assert (old.version, new.version) == (1, 2)
    assert_reference_bits(new, points, new_centers)
    assert new.sq_dists.tobytes() != old.sq_dists.tobytes()
