"""Property-based tests: execution backends must change *nothing*.

The exec-layer contract: for any backend (serial / thread / process),
any worker count, and either split-source kind (in-memory or
memory-mapped), the MapReduce pipelines produce bit-identical centers,
costs, per-job telemetry, and simulated minutes.  Determinism rests on
pre-spawned per-(job, split) RNGs, split-order result collection, and the
sorted-key reduce fold — exactly the invariants these tests attack with
adversarial instances.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.splits import MmapSplitSource
from repro.exec import (
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    WorkerBudget,
)
from repro.mapreduce.jobs.cost_job import PHI_KEY, make_cost_job
from repro.mapreduce.jobs.lloyd_job import collect_new_centers, make_lloyd_job
from repro.mapreduce.kmeans_mr import mr_random_kmeans, mr_scalable_kmeans
from repro.mapreduce.runtime import LocalMapReduceRuntime
from tests.properties.strategies import points_and_k

# Process pools are expensive to build; share one backend of each kind
# across all examples (their budgets are private so no test interferes).
SETTINGS = dict(max_examples=8, deadline=None)


@pytest.fixture(scope="module")
def backends():
    serial = SerialBackend(budget=WorkerBudget(4))
    thread = ThreadBackend(budget=WorkerBudget(4))
    process = ProcessBackend(budget=WorkerBudget(4))
    yield {"serial": serial, "thread": thread, "process": process}
    thread.shutdown()
    process.shutdown()


def _report_fingerprint(report):
    return {
        "centers": report.centers.tobytes(),
        "seed_cost": report.seed_cost,
        "final_cost": report.final_cost,
        "lloyd_iters": report.lloyd_iters,
        "n_candidates": report.n_candidates,
        "n_jobs": report.n_jobs,
        "simulated_minutes": report.simulated_minutes,
        "breakdown": report.breakdown,
    }


class TestPipelineBackendInvariance:
    @given(
        data=points_and_k(min_rows=4, max_rows=32),
        n_splits=st.integers(1, 5),
        workers=st.integers(2, 4),
        seed=st.integers(0, 2**16),
    )
    @settings(**SETTINGS)
    def test_mr_scalable_kmeans_bit_identical(
        self, backends, data, n_splits, workers, seed
    ):
        X, k = data
        k = min(k, 4)
        reports = {
            name: mr_scalable_kmeans(
                X, k, l=2.0 * k, r=2, n_splits=n_splits, seed=seed,
                lloyd_max_iter=2, workers=workers, backend=backend,
            )
            for name, backend in backends.items()
        }
        reference = _report_fingerprint(reports["serial"])
        for name in ("thread", "process"):
            assert _report_fingerprint(reports[name]) == reference, name

    @given(
        data=points_and_k(min_rows=4, max_rows=32),
        n_splits=st.integers(1, 5),
        workers=st.integers(2, 4),
        seed=st.integers(0, 2**16),
    )
    @settings(**SETTINGS)
    def test_mr_random_kmeans_bit_identical(
        self, backends, data, n_splits, workers, seed
    ):
        X, k = data
        k = min(k, max(1, X.shape[0] // 2))
        reports = {
            name: mr_random_kmeans(
                X, k, n_splits=n_splits, seed=seed, lloyd_max_iter=2,
                workers=workers, backend=backend,
            )
            for name, backend in backends.items()
        }
        reference = _report_fingerprint(reports["serial"])
        for name in ("thread", "process"):
            assert _report_fingerprint(reports[name]) == reference, name


class TestJobLevelBackendInvariance:
    """Per-job outputs and telemetry, not just the end-to-end report."""

    @given(
        data=points_and_k(min_rows=4, max_rows=40),
        n_splits=st.integers(1, 6),
        workers=st.integers(2, 4),
    )
    @settings(**SETTINGS)
    def test_cost_then_lloyd_jobs_identical(
        self, backends, data, n_splits, workers
    ):
        X, k = data
        k = min(k, 5)
        C = X[:k].copy()
        outcomes = {}
        for name, backend in backends.items():
            runtime = LocalMapReduceRuntime(
                X, n_splits=n_splits, seed=7, workers=workers, backend=backend
            )
            cost = runtime.run_job(make_cost_job(C))
            lloyd = runtime.run_job(make_lloyd_job(C))
            centers, phi = collect_new_centers(lloyd.output, C)
            outcomes[name] = {
                "phi0": cost.single(PHI_KEY),
                "centers": centers.tobytes(),
                "phi1": phi,
                "keys": list(lloyd.output),
                "shuffle_bytes": (cost.stats.shuffle_bytes,
                                  lloyd.stats.shuffle_bytes),
                "reduce_flops": (cost.stats.reduce_flops,
                                 lloyd.stats.reduce_flops),
                "simulated": runtime.simulated_seconds,
            }
        assert outcomes["thread"] == outcomes["serial"]
        assert outcomes["process"] == outcomes["serial"]


class TestMmapBackendInvariance:
    """The process backend's home turf: out-of-core splits."""

    def test_pipeline_identical_from_mmap_source(self, backends, tmp_path, rng):
        """One reference for every backend x worker count x source cell:
        workers=1 and workers=4 must agree too, not only backends at a
        shared worker count."""
        X = rng.normal(size=(400, 6))
        path = tmp_path / "data.npy"
        np.save(path, X)
        source = MmapSplitSource(path)
        reference = None
        for name, backend in backends.items():
            for workers in (1, 2, 4):
                for data in (X, source):
                    report = mr_scalable_kmeans(
                        data, 6, l=12.0, r=2, n_splits=5, seed=11,
                        lloyd_max_iter=3, workers=workers, backend=backend,
                    )
                    fp = _report_fingerprint(report)
                    if reference is None:
                        reference = fp
                    else:
                        assert fp == reference, (
                            name, workers, type(data).__name__
                        )

    def test_mmap_descriptors_ship_no_rows(self, tmp_path, rng):
        # The process backend's map calls must carry (path, start, stop),
        # not the rows — that is what keeps out-of-core datasets
        # out-of-core across the process boundary.
        import pickle

        X = rng.normal(size=(4000, 8))
        path = tmp_path / "big.npy"
        np.save(path, X)
        source = MmapSplitSource(path)
        descriptor = source.descriptor(0, 2000)
        assert len(pickle.dumps(descriptor)) < 1000  # vs 128 kB of rows
        np.testing.assert_array_equal(descriptor.load(), X[:2000])
