"""Property tests: the data plane must change *nothing* but the IPC.

Extends the backend/worker invariance matrix with the plane axis: for
any execution backend (serial / thread / process), any worker count, and
shared or legacy broadcast transport, the MapReduce pipelines must
produce bit-identical centers, costs, counters, and output key order.
Simulated time must be bit-identical across *backends* at a fixed
broadcast mode (the mode itself legitimately changes the broadcast
charge: publish-once vs per-task — that is the telemetry fix, asserted
separately).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec import (
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    WorkerBudget,
)
from repro.mapreduce.jobs.lloyd_job import make_lloyd_job
from repro.mapreduce.kmeans_mr import mr_scalable_kmeans
from repro.mapreduce.runtime import LocalMapReduceRuntime
from tests.properties.strategies import points_and_k

SETTINGS = dict(max_examples=5, deadline=None)


@pytest.fixture(scope="module")
def backends():
    serial = SerialBackend(budget=WorkerBudget(4))
    thread = ThreadBackend(budget=WorkerBudget(4))
    process = ProcessBackend(budget=WorkerBudget(4))
    yield {"serial": serial, "thread": thread, "process": process}
    thread.shutdown()
    process.shutdown()


def _freeze(value):
    """Hashable bitwise fingerprint of an output value of any shape."""
    if isinstance(value, np.ndarray):
        return ("ndarray", value.shape, value.tobytes())
    if isinstance(value, tuple):
        return tuple(_freeze(v) for v in value)
    return value


def _fingerprint(report):
    """Everything that must not depend on the data plane."""
    return {
        "centers": report.centers.tobytes(),
        "seed_cost": report.seed_cost,
        "final_cost": report.final_cost,
        "lloyd_iters": report.lloyd_iters,
        "n_candidates": report.n_candidates,
        "n_jobs": report.n_jobs,
    }


class TestPlaneInvariance:
    """backends x workers x broadcast mode, one pipeline."""

    @given(
        data=points_and_k(min_rows=4, max_rows=24),
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
        kwargs = dict(
            l=2.0 * k, r=2, n_splits=n_splits, seed=seed,
            lloyd_max_iter=2, workers=workers,
        )
        reference = mr_scalable_kmeans(
            X, k, backend=backends["serial"], shared_broadcast=False, **kwargs,
        )
        ref_fp = _fingerprint(reference)
        variants = [
            ("serial", True),
            ("thread", True),
            ("process", False),
            ("process", True),
        ]
        shared_minutes = None
        for name, shared in variants:
            report = mr_scalable_kmeans(
                X, k, backend=backends[name], shared_broadcast=shared,
                **kwargs,
            )
            assert _fingerprint(report) == ref_fp, (name, shared)
            if shared:
                # One fixed mode -> one simulated clock, regardless of
                # backend.
                if shared_minutes is None:
                    shared_minutes = report.simulated_minutes
                assert report.simulated_minutes == shared_minutes, name
            else:
                assert report.simulated_minutes == reference.simulated_minutes

    @given(
        data=points_and_k(min_rows=4, max_rows=24),
        n_splits=st.integers(1, 5),
        seed=st.integers(0, 2**16),
    )
    @settings(**SETTINGS)
    def test_job_output_key_order_plane_invariant(
        self, backends, data, n_splits, seed
    ):
        """JobResult.output key order must survive the shared transport."""
        X, k = data
        k = min(k, 4)
        C = X[:k].copy()
        with LocalMapReduceRuntime(
            X, n_splits=n_splits, seed=seed, workers=2,
            backend=backends["serial"], shared_broadcast=False,
        ) as ref_rt:
            ref = ref_rt.run_job(make_lloyd_job(C))
        with LocalMapReduceRuntime(
            X, n_splits=n_splits, seed=seed, workers=2,
            backend=backends["process"], shared_broadcast=True,
        ) as rt:
            out = rt.run_job(make_lloyd_job(C))
        assert list(out.output.keys()) == list(ref.output.keys())
        assert out.counters.as_dict() == ref.counters.as_dict()
        for key in ref.output:
            assert len(ref.output[key]) == len(out.output[key])
            for a, b in zip(ref.output[key], out.output[key]):
                assert _freeze(a) == _freeze(b)


class TestPlaneTelemetryInvariants:
    def test_broadcast_charged_once_not_per_task(self, backends):
        """The double-count fix: same job, same data — the shared mode's
        broadcast term is 1/n_splits of the legacy per-task charge."""
        rng = np.random.default_rng(0)
        X = rng.normal(size=(240, 6))
        C = X[:8].copy()

        def run(shared):
            with LocalMapReduceRuntime(
                X, n_splits=6, seed=0, workers=2,
                backend=backends["serial"], shared_broadcast=shared,
            ) as rt:
                rt.run_job(make_lloyd_job(C))
                return rt.job_log[-1]

        legacy, shared = run(False), run(True)
        assert legacy.broadcast_bytes == shared.broadcast_bytes > 0
        assert legacy.broadcast_mode == "task"
        assert shared.broadcast_mode == "shared"
        assert legacy.broadcast_bytes_per_task == 6 * legacy.broadcast_bytes
        assert legacy.broadcast_bytes_published == 0
        assert shared.broadcast_bytes_published == shared.broadcast_bytes
        assert shared.broadcast_bytes_per_task == 0
        # The simulated network sees the payload once vs n_splits times;
        # every other term is identical, so shared must be faster.
        assert shared.time.total < legacy.time.total

    def test_state_residency_grows_with_rounds(self, backends):
        """Across a multi-round run, resident state bytes must dominate
        shipped state bytes (the caches cross once, then never again)."""
        rng = np.random.default_rng(1)
        X = rng.normal(size=(400, 5))
        report = mr_scalable_kmeans(
            X, 4, l=8.0, r=4, n_splits=4, seed=3, lloyd_max_iter=4,
            workers=3, backend=backends["process"], shared_broadcast=True,
        )
        plane = report.plane
        assert plane["state_bytes_resident"] > 2 * plane["state_bytes_shipped"] > 0
