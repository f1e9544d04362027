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

import threading

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
