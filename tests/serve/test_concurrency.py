"""Serving under concurrent model refresh: no torn reads, no leaks.

The registry's contract is that a version flip is one atomic reference
swap: a reader sees the old whole model or the new whole model.  Here N
client threads hammer the service while the writer publishes a stream of
versions; every response must be bit-identical to the naive assignment
against *the version it reports* — a torn read (half-updated centers)
could not satisfy that for any version.  Afterwards the registry must
leave zero shared-memory segments behind.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from repro.data.gauss_mixture import make_gauss_mixture
from repro.linalg.distances import _as_working, assign_labels
from repro.plane.shm import active_owned_segments
from repro.serve import AssignmentService, ModelRegistry, assign_serve

N_CLIENTS = 6
N_VERSIONS = 12
REQUESTS_PER_CLIENT = 8


@pytest.fixture(scope="module")
def workload():
    ds = make_gauss_mixture(seed=31, n=1200, d=6, k=16, R=8.0)
    return ds.X, ds.true_centers


def test_no_torn_reads_during_version_flips(workload):
    X, centers = workload
    before = active_owned_segments()
    # Retain every version so each response can be audited afterwards.
    with ModelRegistry(shared=True, keep_versions=N_VERSIONS + 1) as registry:
        registry.publish(centers)
        service = AssignmentService(registry)
        results: list[tuple[np.ndarray, object]] = []
        results_lock = threading.Lock()
        start = threading.Barrier(N_CLIENTS + 1)

        def client(seed: int) -> None:
            rng = np.random.default_rng(seed)
            start.wait()
            for _ in range(REQUESTS_PER_CLIENT):
                rows = rng.integers(0, X.shape[0], size=32)
                response = service.assign(X[rows])
                with results_lock:
                    results.append((X[rows], response))

        def writer() -> None:
            rng = np.random.default_rng(99)
            start.wait()
            for _ in range(N_VERSIONS):
                jitter = rng.normal(0.0, 0.05, size=centers.shape)
                registry.publish(centers + jitter)

        threads = [
            threading.Thread(target=client, args=(1000 + i,))
            for i in range(N_CLIENTS)
        ]
        threads.append(threading.Thread(target=writer))
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        service.close()

        assert len(results) == N_CLIENTS * REQUESTS_PER_CLIENT
        seen_versions = set()
        for points, response in results:
            served = registry.get(response.version)  # all retained
            expected = assign_labels(
                *_as_working(points, np.asarray(served.centers))
            )
            np.testing.assert_array_equal(response.labels, expected)
            seen_versions.add(response.version)
        # The flips must actually have been observable mid-stream.
        assert registry.current().version == N_VERSIONS + 1
    assert active_owned_segments() == before


def test_lagging_reader_survives_aggressive_retirement(workload):
    """keep_versions=0: every publish unmaps the predecessor's segment."""
    X, centers = workload
    before = active_owned_segments()
    with ModelRegistry(shared=True, keep_versions=0) as registry:
        held = registry.publish(centers)
        expected = assign_labels(
            *_as_working(X[:64], np.asarray(held.centers))
        )
        stop = threading.Event()

        def writer() -> None:
            i = 0
            while not stop.is_set():
                registry.publish(centers + 0.01 * (i + 1))
                i += 1

        w = threading.Thread(target=writer)
        w.start()
        try:
            for _ in range(50):  # keep serving from the original model
                got = assign_serve(X[:64], held).labels
                np.testing.assert_array_equal(got, expected)
        finally:
            stop.set()
            w.join()
    assert active_owned_segments() == before


def test_every_response_matches_its_version_across_flips(workload):
    """Four callers serve while a writer publishes 20 versions.

    Versions alternate float32 and float64 centers and callers alternate
    float32 and float64 requests, so callers race on each version's
    first use of its center terms.  Every response must be
    ``assign_labels``'s bits against its own version's centers, and the
    counters, kept without a lock, must count every request once.
    """
    X, centers = workload
    n_callers, n_versions, n_requests = 4, 20, 60
    rng = np.random.default_rng(7)
    versions = {}
    with ModelRegistry(shared=False, keep_versions=n_versions + 1) as registry:
        versions[registry.publish(centers).version] = np.array(centers)
        service = AssignmentService(registry)
        results = [[] for _ in range(n_callers)]
        start = threading.Barrier(n_callers + 1)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)

        def caller(c: int) -> None:
            order = np.random.default_rng(c).integers(0, X.shape[0] - 64, n_requests)
            start.wait()
            for i, lo in enumerate(order):
                points = X[lo:lo + 1 + (c * 7 + i) % 64]
                if (c + i) % 2:
                    points = points.astype(np.float32)
                results[c].append((points, service.assign(points)))

        def writer() -> None:
            start.wait()
            for i in range(n_versions):
                # Publish as the callers progress, so flips land mid-stream.
                due = (i + 1) * n_callers * n_requests // (n_versions + 1)
                deadline = time.monotonic() + 30
                while sum(map(len, results)) < due and time.monotonic() < deadline:
                    time.sleep(0)
                jittered = centers + rng.normal(0.0, 0.05, size=centers.shape)
                model = registry.publish(
                    jittered.astype(np.float32 if i % 2 == 0 else np.float64)
                )
                versions[model.version] = np.array(model.centers)

        threads = [threading.Thread(target=caller, args=(c,)) for c in range(n_callers)]
        threads.append(threading.Thread(target=writer))
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(switch)
        stats = service.stats()
        service.close()

    served = [pair for out in results for pair in out]
    assert len(served) == n_callers * n_requests
    for points, result in served:
        labels, d2 = assign_labels(
            *_as_working(points, versions[result.version]), return_sq_dists=True
        )
        assert result.labels.tobytes() == labels.tobytes()
        assert result.sq_dists.tobytes() == d2.tobytes()
    assert len({result.version for _, result in served}) > 1
    assert stats.n_requests == len(served)
    assert stats.n_points == sum(points.shape[0] for points, _ in served)
    assert stats.n_dist_evals == stats.n_points * centers.shape[0]
