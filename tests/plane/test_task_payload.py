"""The acceptance check: task pickles shrink to O(1)-sized descriptors.

A metering backend that *actually* round-trips every call and result
through pickle (a faithful in-process stand-in for the process
boundary) measures the driver↔worker payloads of a real
``mr_scalable_kmeans`` + MR-Lloyd run.  With default arguments the
per-task pickle must contain no ndarray bytes — not the broadcast
centers, not the d²/norm caches, not the mmap-backed split rows — while
results stay bit-identical to the serial reference.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.exec import SerialBackend, WorkerBudget
from repro.mapreduce.kmeans_mr import mr_scalable_kmeans
from repro.plane.shm import release_all_segments


@pytest.fixture(autouse=True)
def _clean_registry():
    yield
    release_all_segments()


class PickleMeteringBackend(SerialBackend):
    """Serial execution that forces every call through a pickle boundary.

    ``crosses_processes`` is declared so the runtime takes the shared
    transport exactly as it does for the real process backend; tasks
    and results are round-tripped through ``pickle`` so anything that
    would not survive real IPC cannot sneak through, and their sizes
    are recorded per job phase.
    """

    name = "pickle-meter"
    crosses_processes = True

    def __init__(self):
        super().__init__(budget=WorkerBudget(1))
        self.task_bytes: list[int] = []
        self.result_bytes: list[int] = []

    def run_calls(self, fn, calls, *, parallelism=None, **kwargs):
        results = []
        for args in calls:
            blob = pickle.dumps((fn, tuple(args)), pickle.HIGHEST_PROTOCOL)
            self.task_bytes.append(len(blob))
            fn2, args2 = pickle.loads(blob)
            result_blob = pickle.dumps(fn2(*args2), pickle.HIGHEST_PROTOCOL)
            self.result_bytes.append(len(result_blob))
            results.append(pickle.loads(result_blob))
        return results


@pytest.fixture
def mmap_dataset(rng, tmp_path):
    # Big enough that any ndarray riding a task pickle is unmissable:
    # each split's d² cache alone is 500 rows * 8 B = 4000 B.
    X = rng.normal(size=(2000, 8))
    path = tmp_path / "data.npy"
    np.save(path, X)
    return str(path), X


def run_pipeline(path, *, backend):
    return mr_scalable_kmeans(
        path, 4, l=8.0, r=2, n_splits=4, seed=7, lloyd_max_iter=3,
        workers=1, backend=backend,
    )


class TestTaskPayloads:
    def test_shared_plane_ships_only_descriptors(self, mmap_dataset):
        path, X = mmap_dataset
        meter = PickleMeteringBackend()
        report = run_pipeline(path, backend=meter)
        reference = run_pipeline(path, backend=SerialBackend())

        # Bit-identical to the serial reference.
        np.testing.assert_array_equal(report.centers, reference.centers)
        assert report.final_cost == reference.final_cost
        assert report.seed_cost == reference.seed_cost

        # Every driver→worker task pickle is O(1): RNG state +
        # descriptors + the (payload-free) job spec — never the 4000 B
        # d² cache, the 128 kB mmap split, or the k*d broadcast block.
        assert meter.task_bytes, "metering backend never ran"
        assert max(meter.task_bytes) < 3500
        # Worker→driver: a split's cache crosses exactly once — the
        # publish trip of the job that *created* it (d²/argmin in the
        # first cost job, row norms in the first Lloyd job) — and is a
        # resident marker forever after: at most one fat result per
        # (split, cache-creating job) = 4 × 2 here, versus one per task
        # per job (~40) if the caches rode every pickle.
        big = [b for b in meter.result_bytes if b > 3500]
        assert len(big) <= 8

        # Telemetry agrees: each split's d², argmin and norms (8 B a row
        # each) crossed once and are held once; the broadcast was
        # published per job, never per task.
        plane = report.plane
        assert plane["state_bytes_resident"] == 3 * 8 * X.shape[0]
        assert plane["state_bytes_shipped"] >= plane["state_bytes_resident"]
        assert plane["broadcast_bytes_published"] > 0

    def test_per_job_payload_is_flat_in_rounds(self, mmap_dataset):
        """More rounds must not grow per-task payloads (O(1), not O(T))."""
        path, _ = mmap_dataset
        meter = PickleMeteringBackend()
        run_pipeline(path, backend=meter)
        n = len(meter.task_bytes)
        early = max(meter.task_bytes[: n // 3])
        late = max(meter.task_bytes[-n // 3 :])
        assert late <= early * 1.5
