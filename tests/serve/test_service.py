"""AssignmentService: each request served on its caller's thread, errors."""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from repro.data.gauss_mixture import make_gauss_mixture
from repro.exceptions import ValidationError
from repro.linalg import sparse as _sparse
from repro.linalg.distances import _as_working, assign_labels
from repro.serve import AssignmentService, ModelRegistry
from repro.serve import assign as serve_assign
from repro.serve import service as serve_service


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


def run_threads(targets, timeout=30):
    """Start one thread per ``(target, args)`` pair and join them all."""
    threads = [threading.Thread(target=t, args=args) for t, args in targets]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=timeout)
        assert not t.is_alive()


def test_fast_path_single_caller(workload, registry):
    X, centers = workload
    with AssignmentService(registry) as service:
        response = service.assign(X[:50])
        np.testing.assert_array_equal(
            response.labels, naive_labels(X[:50], centers)
        )
        assert response.version == 1
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
    """Thirty callers released together each get their own naive labels.

    A short switch interval makes a lost update of the shared counters
    likely if they were not locked.
    """
    X, centers = workload
    requests = np.array_split(X, 30)
    responses = [None] * len(requests)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with AssignmentService(registry) as service:
            barrier = threading.Barrier(len(requests))

            def client(i):
                barrier.wait()
                responses[i] = service.assign(requests[i])

            run_threads([(client, (i,)) for i in range(len(requests))])
            stats = service.stats()
    finally:
        sys.setswitchinterval(interval)

    for request, response in zip(requests, responses):
        np.testing.assert_array_equal(
            response.labels, naive_labels(request, centers)
        )
    assert stats.n_requests == len(requests)
    assert stats.n_points == X.shape[0]


def test_mixed_dtype_requests_share_a_batch(workload, registry):
    """Concurrent float64, float32 and CSR requests each get their own labels."""
    X, centers = workload
    requests = {
        "f64": X[:80].astype(np.float64),
        "f32": X[80:160].astype(np.float32),
    }
    if _sparse.HAVE_SCIPY:
        from scipy.sparse import csr_matrix

        requests["csr"] = csr_matrix(X[160:200])
    out = {}
    with AssignmentService(registry) as service:
        barrier = threading.Barrier(len(requests))

        def client(name):
            barrier.wait()
            out[name] = service.assign(requests[name])

        run_threads([(client, (name,)) for name in requests])

    for name, points in requests.items():
        np.testing.assert_array_equal(
            out[name].labels, assign_labels(points, np.asarray(centers))
        )


def test_concurrent_calls_are_in_the_kernel_together(
    workload, registry, monkeypatch
):
    """A second caller does not wait for the first to leave the kernel."""
    X, centers = workload
    inside = threading.Barrier(2, timeout=10)
    kernel = serve_assign.assign_labels

    def spy(Xw, Cw, **kwargs):
        inside.wait()  # breaks after 10 s unless both calls get here
        return kernel(Xw, Cw, **kwargs)

    monkeypatch.setattr(serve_assign, "assign_labels", spy)
    parts = [X[:30], X[30:70]]
    out = [None, None]
    errors = []
    with AssignmentService(registry) as service:

        def client(i):
            try:
                out[i] = service.assign(parts[i])
            except threading.BrokenBarrierError as exc:
                errors.append(exc)

        run_threads([(client, (0,)), (client, (1,))])
    assert errors == []
    for part, response in zip(parts, out):
        np.testing.assert_array_equal(
            response.labels, naive_labels(part, centers)
        )


def test_each_call_is_one_assign_serve_on_its_callers_thread(
    workload, registry, monkeypatch
):
    X, centers = workload
    calls = []
    calls_lock = threading.Lock()
    serve = serve_service.assign_serve

    def spy(points, model):
        with calls_lock:
            calls.append((threading.get_ident(), points.shape[0]))
        time.sleep(0.02)  # keep the others arriving while this call runs
        return serve(points, model)

    monkeypatch.setattr(serve_service, "assign_serve", spy)
    parts = np.array_split(X[:120], 6)
    callers = [None] * len(parts)
    labels = [None] * len(parts)
    with AssignmentService(registry) as service:
        barrier = threading.Barrier(len(parts))

        def client(i):
            callers[i] = threading.get_ident()
            barrier.wait()
            labels[i] = service.assign(parts[i]).labels

        run_threads([(client, (i,)) for i in range(len(parts))])
        stats = service.stats()
    assert sorted(calls) == sorted(
        (ident, part.shape[0]) for ident, part in zip(callers, parts)
    )
    for part, got in zip(parts, labels):
        np.testing.assert_array_equal(got, naive_labels(part, centers))
    assert stats.n_requests == len(parts)
    assert stats.n_batches == stats.n_fast_path == stats.n_requests


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_request_rejected_before_queueing(workload, registry, bad):
    X, centers = workload
    poisoned = X[200:232].copy()
    poisoned[5, 1] = bad
    good = X[:64]
    errors: list[BaseException] = []
    out = {}
    with AssignmentService(registry) as service:
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

        run_threads([
            (finite_client, ()),
            (bad_client, (poisoned,)),
            (bad_client, (poisoned[5],)),
        ])
        stats = service.stats()
    assert len(errors) == 2
    assert all("non-finite" in str(exc) for exc in errors)
    np.testing.assert_array_equal(out["labels"], naive_labels(good, centers))
    # Rejected in the caller: neither bad request was served.
    assert stats.n_requests == 1
    assert stats.n_points == good.shape[0]


NOT_REAL = {
    "complex": lambda X: X.astype(np.complex128),
    "object": lambda X: X.astype(object),
    "string": lambda X: X.astype(str),
}


@pytest.mark.parametrize("kind", sorted(NOT_REAL))
def test_non_real_request_rejected(workload, registry, kind):
    X, _ = workload
    with AssignmentService(registry) as service:
        with pytest.raises(ValidationError, match="real numbers"):
            service.assign(NOT_REAL[kind](X[:8]))
        assert service.stats().n_requests == 0


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
    with AssignmentService(registry) as service:
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


def test_dist_eval_attribution_sums_to_batch_total(workload, registry):
    X, _ = workload
    with AssignmentService(registry) as service:
        response = service.assign(X[:100])
        stats = service.stats()
        assert response.n_dist_evals == stats.n_dist_evals
