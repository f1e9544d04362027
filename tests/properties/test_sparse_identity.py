"""Sparse-path identity properties — the CSR acceptance gate.

Two families of guarantees (see :mod:`repro.linalg.sparse`):

* **Schedule identity** — a CSR dataset produces bit-identical centers
  and costs on every backend (serial / thread / process), any
  worker count, in-memory or mmap-backed from an on-disk CSR directory.
  Nothing may leak: no ``/dev/shm`` segment survives any run.
* **Densification contract** — against the dense pipeline on the same
  float values: :func:`~repro.linalg.centroids.cluster_sums` is bitwise
  equal; squared distances agree within
  :func:`~repro.linalg.sparse.sparse_d2_slack`; argmin labels agree
  wherever the dense runner-up margin exceeds twice that slack (the
  property test the tolerance contract demands).
"""

from __future__ import annotations

import pathlib

import numpy as np
import pytest

scipy_sparse = pytest.importorskip("scipy.sparse")

from repro.data.splits import save_csr_dir
from repro.exec import (
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    reset_region_ids,
    set_fault_injector,
)
from repro.linalg import assign_labels, cluster_sums, min_sq_dists, use_engine
from repro.linalg.sparse import sparse_d2_slack
from repro.mapreduce.kmeans_mr import mr_scalable_kmeans
from repro.plane.shm import SEGMENT_PREFIX, release_all_segments

_DEV_SHM = pathlib.Path("/dev/shm")


def shm_leftovers() -> list[str]:
    if not _DEV_SHM.is_dir():
        return []
    return sorted(p.name for p in _DEV_SHM.glob(f"{SEGMENT_PREFIX}*"))


@pytest.fixture(autouse=True)
def _clean_state():
    prev = set_fault_injector(None)
    reset_region_ids()
    release_all_segments()
    shm_before = shm_leftovers()
    yield
    set_fault_injector(prev)
    release_all_segments()
    assert shm_leftovers() == shm_before


def _sparse_blobs(seed: int = 3, n: int = 300, d: int = 24, k: int = 5):
    """Clustered data with genuine zeros: dense ndarray + its CSR twin."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=6.0, size=(k, d))
    X = centers[rng.integers(0, k, n)] + rng.normal(scale=0.5, size=(n, d))
    X = np.where(rng.random((n, d)) < 0.25, X, 0.0)
    return X, scipy_sparse.csr_matrix(X)


@pytest.fixture(scope="module")
def data():
    return _sparse_blobs()


@pytest.fixture(scope="module")
def csr_dir(data, tmp_path_factory):
    _, Xs = data
    directory = tmp_path_factory.mktemp("sparse") / "blobs.csr"
    save_csr_dir(Xs, directory)
    return str(directory)


def _pipeline(source, *, backend=None, workers=1, **kwargs):
    return mr_scalable_kmeans(
        source, 5, l=8.0, r=3, n_splits=4, seed=11, lloyd_max_iter=3,
        workers=workers, backend=backend or SerialBackend(), **kwargs,
    )


@pytest.fixture(scope="module")
def sparse_reference(data):
    _, Xs = data
    return _pipeline(Xs)


@pytest.fixture(scope="module")
def dense_reference(data):
    Xd, _ = data
    return _pipeline(Xd)


def _assert_same_run(report, reference):
    # The model outputs, whatever schedule produced them.
    assert (report.centers == reference.centers).all()
    assert report.seed_cost == reference.seed_cost
    assert report.final_cost == reference.final_cost
    assert report.lloyd_iters == reference.lloyd_iters
    assert report.n_candidates == reference.n_candidates


class TestSparseScheduleIdentity:
    """One CSR answer, whatever the schedule holding it."""

    @pytest.mark.parametrize(
        "backend_factory", [SerialBackend, ThreadBackend, ProcessBackend],
        ids=["serial", "thread", "process"],
    )
    @pytest.mark.parametrize("workers", [1, 3])
    def test_backends_and_workers(
        self, data, sparse_reference, backend_factory, workers
    ):
        _, Xs = data
        report = _pipeline(Xs, backend=backend_factory(), workers=workers)
        _assert_same_run(report, sparse_reference)

    def test_on_disk_csr_matches_in_memory(self, csr_dir, sparse_reference):
        report = _pipeline(csr_dir)
        _assert_same_run(report, sparse_reference)

    def test_on_disk_csr_process_backend(self, csr_dir, sparse_reference):
        # Descriptors pickle as (directory, start, stop) and re-mmap in
        # the worker process.
        report = _pipeline(csr_dir, backend=ProcessBackend(), workers=3)
        _assert_same_run(report, sparse_reference)

    def test_shared_plane_matches(self, data, sparse_reference):
        # Split state rides shared segments on the process backend; the
        # CSR pipeline's answer does not move.
        _, Xs = data
        backend = ProcessBackend()
        try:
            report = _pipeline(Xs, backend=backend, workers=3)
        finally:
            backend.shutdown()
        _assert_same_run(report, sparse_reference)
        assert report.plane["state_bytes_resident"] > 0


class TestDensificationContract:
    """Sparse vs dense on the same float values."""

    def test_pipeline_costs_match_dense(self, sparse_reference, dense_reference):
        # Distance arithmetic may differ by the slack contract; on
        # separated blobs the pipeline-level outputs must still agree to
        # float accuracy (and identically-seeded sampling must pick the
        # same candidate counts).
        np.testing.assert_allclose(
            sparse_reference.centers, dense_reference.centers, rtol=1e-9
        )
        np.testing.assert_allclose(
            sparse_reference.final_cost, dense_reference.final_cost, rtol=1e-9
        )
        assert sparse_reference.n_candidates == dense_reference.n_candidates

    def test_cluster_sums_bitwise(self, data):
        Xd, Xs = data
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 7, Xd.shape[0])
        weights = rng.random(Xd.shape[0])
        assert (
            cluster_sums(Xs, labels, 7) == cluster_sums(Xd, labels, 7)
        ).all()
        assert (
            cluster_sums(Xs, labels, 7, weights=weights)
            == cluster_sums(Xd, labels, 7, weights=weights)
        ).all()

    def test_cluster_sums_bitwise_across_workers(self, data):
        _, Xs = data
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 4, Xs.shape[0])
        ref = cluster_sums(Xs, labels, 4)
        for workers in (2, 4):
            with use_engine(workers=workers):
                assert (cluster_sums(Xs, labels, 4) == ref).all()

    def test_labels_match_outside_slack_band(self):
        # The documented contract: labels may differ only where the
        # dense runner-up margin is inside 2 * sparse_d2_slack.  Random
        # (unclustered) data maximizes near-ties, so this exercises the
        # band rather than avoiding it.
        rng = np.random.default_rng(5)
        for trial in range(5):
            X = np.where(
                rng.random((400, 30)) < 0.1,
                rng.normal(size=(400, 30)),
                0.0,
            )
            C = rng.normal(size=(16, 30))
            Xs = scipy_sparse.csr_matrix(X)
            dense_labels, dense_d2 = assign_labels(X, C, return_sq_dists=True)
            sparse_labels = assign_labels(Xs, C)
            x_norms = np.einsum("ij,ij->i", X, X)
            c_norms = np.einsum("ij,ij->i", C, C)
            slack = sparse_d2_slack(x_norms, c_norms, X.shape[1], np.float64)
            full = (
                x_norms[:, None] - 2.0 * (X @ C.T) + c_norms[None, :]
            )
            np.maximum(full, 0.0, out=full)
            part = np.partition(full, 1, axis=1)
            margin = part[:, 1] - part[:, 0]
            decided = margin > 2.0 * slack
            assert (sparse_labels[decided] == dense_labels[decided]).all()
            # And distances agree within the contract everywhere.
            sparse_d2 = min_sq_dists(Xs, C)
            assert (np.abs(sparse_d2 - dense_d2) <= 2.0 * slack).all()

    def test_costs_within_slack(self, data):
        Xd, Xs = data
        rng = np.random.default_rng(9)
        C = rng.normal(scale=4.0, size=(6, Xd.shape[1]))
        dense = min_sq_dists(Xd, C)
        sparse = min_sq_dists(Xs, C)
        x_norms = np.einsum("ij,ij->i", Xd, Xd)
        c_norms = np.einsum("ij,ij->i", C, C)
        slack = sparse_d2_slack(x_norms, c_norms, Xd.shape[1], np.float64)
        assert (np.abs(dense - sparse) <= 2.0 * slack).all()
