"""AssignmentService: micro-batching, fast path, dtype grouping, errors."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.data.gauss_mixture import make_gauss_mixture
from repro.exceptions import ValidationError
from repro.linalg import sparse as _sparse
from repro.linalg.distances import _as_working, assign_labels
from repro.serve import AssignmentService, ModelRegistry
from repro.serve import assign as serve_assign
from repro.serve.service import _Request


@pytest.fixture(scope="module")
def workload():
    ds = make_gauss_mixture(seed=23, n=1500, d=6, k=16, R=8.0)
    return ds.X, ds.true_centers


@pytest.fixture
def registry(workload):
    _, centers = workload
    with ModelRegistry(shared=False) as registry:
        registry.publish(centers)
        yield registry


def naive_labels(X, centers):
    return assign_labels(*_as_working(np.asarray(X), np.asarray(centers)))


def test_fast_path_single_caller(workload, registry):
    X, centers = workload
    with AssignmentService(registry) as service:
        response = service.assign(X[:50])
        np.testing.assert_array_equal(
            response.labels, naive_labels(X[:50], centers)
        )
        assert response.version == 1
        assert response.batch_points == 50
        stats = service.stats()
        assert stats.n_requests == 1
        assert stats.n_batches == 1
        assert stats.n_fast_path == 1


def test_single_point_1d_request(workload, registry):
    X, centers = workload
    with AssignmentService(registry) as service:
        response = service.assign(X[0])
        assert response.labels.shape == (1,)
        np.testing.assert_array_equal(
            response.labels, naive_labels(X[:1], centers)
        )


def test_concurrent_callers_coalesce_and_match_naive(workload, registry):
    X, centers = workload
    requests = np.array_split(X, 30)
    responses = [None] * len(requests)
    # A long linger plus a barrier makes coalescing all but certain.
    with AssignmentService(registry, max_wait_us=20_000.0) as service:
        barrier = threading.Barrier(len(requests))

        def client(i):
            barrier.wait()
            responses[i] = service.assign(requests[i])

        threads = [
            threading.Thread(target=client, args=(i,))
            for i in range(len(requests))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stats = service.stats()

    for request, response in zip(requests, responses):
        np.testing.assert_array_equal(
            response.labels, naive_labels(request, centers)
        )
    assert stats.n_requests == len(requests)
    assert stats.n_points == X.shape[0]
    # Coalescing must actually have happened: fewer batches than requests.
    assert stats.n_batches < len(requests)
    assert stats.max_batch_points > max(r.shape[0] for r in requests)


def test_max_batch_bounds_drain(workload, registry):
    X, _ = workload
    with AssignmentService(registry, max_batch=10, max_wait_us=20_000.0) as service:
        barrier = threading.Barrier(4)
        responses = [None] * 4

        def client(i):
            barrier.wait()
            responses[i] = service.assign(X[i * 40:(i + 1) * 40])

        threads = [threading.Thread(target=client, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    assert all(r is not None for r in responses)


def test_mixed_dtype_requests_share_a_batch(workload, registry):
    X, centers = workload
    with AssignmentService(registry, max_wait_us=20_000.0) as service:
        barrier = threading.Barrier(2)
        out = {}

        def client(name, points):
            barrier.wait()
            out[name] = service.assign(points)

        a = threading.Thread(
            target=client, args=("f64", X[:80].astype(np.float64))
        )
        b = threading.Thread(
            target=client, args=("f32", X[80:160].astype(np.float32))
        )
        a.start(); b.start(); a.join(); b.join()

    np.testing.assert_array_equal(
        out["f64"].labels, naive_labels(X[:80].astype(np.float64), centers)
    )
    np.testing.assert_array_equal(
        out["f32"].labels,
        naive_labels(X[80:160].astype(np.float32), centers),
    )


def test_one_assign_labels_call_per_group(workload, registry, monkeypatch):
    """A coalesced batch is one kernel call per (sparsity, dtype) group."""
    X, centers = workload
    calls = []
    kernel = serve_assign.assign_labels

    def spy(Xw, Cw, **kwargs):
        calls.append((_sparse.is_sparse(Xw), Xw.dtype.str, Xw.shape[0]))
        return kernel(Xw, Cw, **kwargs)

    monkeypatch.setattr(serve_assign, "assign_labels", spy)
    parts = [
        X[:10],
        X[10:30].astype(np.float32),
        X[30:40],
        X[40:45].astype(np.float32),
    ]
    # Centers are float64, so every group's working dtype is too; the
    # float32 requests still make their own call.
    f64 = np.dtype(np.float64).str
    expected_calls = [(False, f64, 20), (False, f64, 25)]
    if _sparse.HAVE_SCIPY:
        from scipy.sparse import csr_matrix

        parts += [csr_matrix(X[45:60]), csr_matrix(X[60:62])]
        expected_calls.append((True, f64, 17))
    batch = [_Request(points) for points in parts]
    with AssignmentService(registry) as service:
        service._serve_batch(batch, fast_path=False)
    assert sorted(calls) == expected_calls
    total = sum(p.shape[0] for p in parts)
    for request, points in zip(batch, parts):
        assert request.error is None
        assert request.response.batch_points == total
        np.testing.assert_array_equal(
            request.response.labels, assign_labels(points, centers)
        )


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_request_rejected_before_queueing(workload, registry, bad):
    X, centers = workload
    poisoned = X[200:232].copy()
    poisoned[5, 1] = bad
    good = X[:64]
    errors: list[BaseException] = []
    out = {}
    with AssignmentService(registry, max_wait_us=20_000.0) as service:
        barrier = threading.Barrier(3)

        def finite_client():
            barrier.wait()
            out["labels"] = service.assign(good).labels

        def bad_client(points):
            barrier.wait()
            try:
                service.assign(points)
            except ValidationError as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=finite_client),
            threading.Thread(target=bad_client, args=(poisoned,)),
            threading.Thread(target=bad_client, args=(poisoned[5],)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
        stats = service.stats()
    assert len(errors) == 2
    assert all("non-finite" in str(exc) for exc in errors)
    np.testing.assert_array_equal(out["labels"], naive_labels(good, centers))
    # Rejected in the caller: neither bad request joined a batch.
    assert stats.n_requests == 1
    assert stats.n_points == good.shape[0]


@pytest.mark.skipif(not _sparse.HAVE_SCIPY, reason="needs scipy")
def test_non_finite_csr_request_rejected(workload, registry):
    from scipy.sparse import csr_matrix

    X, _ = workload
    poisoned = csr_matrix(X[:8])
    poisoned.data[3] = np.nan
    with AssignmentService(registry) as service:
        with pytest.raises(ValidationError):
            service.assign(poisoned)
        assert service.stats().n_requests == 0


def test_return_sq_dists(workload, registry):
    X, centers = workload
    with AssignmentService(registry, return_sq_dists=True) as service:
        response = service.assign(X[:30])
        assert response.sq_dists is not None
        _, d2 = assign_labels(
            *_as_working(X[:30], np.asarray(centers)), return_sq_dists=True
        )
        np.testing.assert_array_equal(response.sq_dists, d2)


def test_dimension_mismatch_raises_in_caller(workload, registry):
    with AssignmentService(registry) as service:
        with pytest.raises(ValidationError):
            service.assign(np.ones((4, 99)))
        # The service must still work afterwards.
        X, centers = workload
        response = service.assign(X[:10])
        np.testing.assert_array_equal(
            response.labels, naive_labels(X[:10], centers)
        )


def test_closed_service_rejects(workload, registry):
    X, _ = workload
    service = AssignmentService(registry)
    service.close()
    with pytest.raises(ValidationError):
        service.assign(X[:5])


def test_knob_validation(registry):
    with pytest.raises(ValidationError):
        AssignmentService(registry, max_batch=0)
    with pytest.raises(ValidationError):
        AssignmentService(registry, max_wait_us=-1.0)


def test_dist_eval_attribution_sums_to_batch_total(workload, registry):
    X, _ = workload
    with AssignmentService(registry) as service:
        response = service.assign(X[:100])
        stats = service.stats()
        assert response.n_dist_evals == stats.n_dist_evals
