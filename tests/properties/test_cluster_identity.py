"""Cluster identity property: the acceptance gate for the socket backend.

``mr_scalable_kmeans`` / ``mr_random_kmeans`` over real localhost worker
daemons must produce centers, costs, counters, and key order
bit-identical to a serial run — across worker counts, with send-once
shared broadcasts, under the async scheduler, with data-root-relative
split descriptors, and while chaos kills daemons mid-run.  Nothing may
leak: no daemon process, shm segment, or spill dir survives a test.
"""

from __future__ import annotations

import os
import pathlib
import tempfile

import numpy as np
import pytest

from repro.cluster import ClusterBackend
from repro.exec import (
    ChaosInjector,
    RetryPolicy,
    SerialBackend,
    WorkerBudget,
    reset_region_ids,
    set_fault_injector,
)
from repro.mapreduce.kmeans_mr import mr_random_kmeans, mr_scalable_kmeans
from repro.plane.shm import SEGMENT_PREFIX, release_all_segments

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="cluster daemon tests are POSIX-only"
)

_DEV_SHM = pathlib.Path("/dev/shm")


def shm_leftovers() -> list[str]:
    if not _DEV_SHM.is_dir():
        return []
    return sorted(p.name for p in _DEV_SHM.glob(f"{SEGMENT_PREFIX}*"))


def spill_leftovers() -> list[str]:
    tmp = pathlib.Path(tempfile.gettempdir())
    return sorted(p.name for p in tmp.glob("repro-shuffle-*"))


@pytest.fixture(autouse=True)
def _clean_state():
    prev = set_fault_injector(None)
    reset_region_ids()
    release_all_segments()
    shm_before, spill_before = shm_leftovers(), spill_leftovers()
    yield
    set_fault_injector(prev)
    release_all_segments()
    assert shm_leftovers() == shm_before
    assert spill_leftovers() == spill_before


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    rng = np.random.default_rng(1)
    X = rng.normal(size=(240, 3))
    path = tmp_path_factory.mktemp("cluster-identity") / "data.npy"
    np.save(path, X)
    return str(path)


def _scalable(path, *, backend, workers=3, **kwargs):
    return mr_scalable_kmeans(
        path, 3, l=4.0, r=2, n_splits=4, seed=7, lloyd_max_iter=2,
        workers=workers, backend=backend, **kwargs,
    )


def _random(path, *, backend, workers=3, **kwargs):
    return mr_random_kmeans(
        path, 3, n_splits=4, seed=7, lloyd_max_iter=2,
        workers=workers, backend=backend, **kwargs,
    )


@pytest.fixture(scope="module")
def reference(dataset):
    return _scalable(dataset, backend=SerialBackend(), workers=1)


@pytest.fixture(scope="module")
def reference_random(dataset):
    return _random(dataset, backend=SerialBackend(), workers=1)


def _assert_identical(report, reference):
    np.testing.assert_array_equal(report.centers, reference.centers)
    assert report.seed_cost == reference.seed_cost
    assert report.final_cost == reference.final_cost
    assert report.lloyd_iters == reference.lloyd_iters
    assert report.n_candidates == reference.n_candidates
    assert report.n_jobs == reference.n_jobs


def _cluster_backend(workers, **kwargs):
    return ClusterBackend(
        budget=WorkerBudget(3), workers=workers, heartbeat_s=0.1, **kwargs
    )


class TestClusterIdentity:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_scalable_bit_identical_across_worker_counts(
        self, dataset, reference, workers
    ):
        backend = _cluster_backend(workers)
        try:
            report = _scalable(dataset, backend=backend)
        finally:
            backend.shutdown()
        _assert_identical(report, reference)
        assert report.params["backend"] == "cluster"

    def test_random_kmeans_bit_identical(self, dataset, reference_random):
        backend = _cluster_backend(2)
        try:
            report = _random(dataset, backend=backend)
        finally:
            backend.shutdown()
        _assert_identical(report, reference_random)

    def test_shared_broadcast_send_once_bit_identical(self, dataset, reference):
        backend = _cluster_backend(2)
        try:
            report = _scalable(dataset, backend=backend, shared_broadcast=True)
            stats = backend.pool_stats
        finally:
            backend.shutdown()
        _assert_identical(report, reference)
        # Send-once: each job's broadcast goes over the wire at most once
        # per worker (O(workers) per job), and repeat tasks hit the cache.
        assert stats["broadcast_sends"] >= 1
        assert stats["broadcast_sends"] <= 2 * report.n_jobs
        assert stats["broadcast_hits"] > stats["broadcast_sends"]

    def test_spilling_shuffle_bit_identical(self, dataset, reference):
        backend = _cluster_backend(2)
        try:
            report = _scalable(
                dataset, backend=backend, shuffle_budget=1,
                shared_broadcast=True,
            )
        finally:
            backend.shutdown()
        _assert_identical(report, reference)

    def test_data_root_relative_descriptors_bit_identical(
        self, dataset, reference, monkeypatch
    ):
        # Descriptors now carry paths relative to REPRO_DATA_ROOT; the
        # daemons (spawned with the driver's env, plus the WELCOME
        # data_root) must resolve them against their own root.
        monkeypatch.setenv("REPRO_DATA_ROOT", os.path.dirname(dataset))
        backend = _cluster_backend(2)
        try:
            report = _scalable(dataset, backend=backend)
        finally:
            backend.shutdown()
        _assert_identical(report, reference)


class TestClusterChaosIdentity:
    @pytest.mark.parametrize("seed", [11, 14])
    def test_random_daemon_deaths_bit_identical(self, dataset, reference, seed):
        set_fault_injector(ChaosInjector(rate=0.08, seed=seed))
        backend = _cluster_backend(3)
        try:
            report = _scalable(
                dataset,
                backend=backend,
                retry_policy=RetryPolicy(max_task_retries=3, backoff_s=0.0),
            )
            stats = backend.pool_stats
        finally:
            backend.shutdown()
            set_fault_injector(None)
        _assert_identical(report, reference)
        assert report.faults["retries"] >= 1
        assert stats["workers_lost"] >= 1  # real daemons really died
