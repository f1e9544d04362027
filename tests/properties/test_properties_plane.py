"""Property tests: the data plane must change *nothing* but the IPC.

The process backend moves broadcasts and split state through shared
memory; serial and thread backends pass them by reference.  For any
backend and any worker count, the MapReduce pipelines must produce
centers, costs, output key order and simulated time
bit-identical to the serial reference, and the simulated clock charges
each job's broadcast once, on every backend.
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
from repro.mapreduce.cluster import ClusterModel
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
        "simulated_minutes": report.simulated_minutes,
    }


class TestPlaneInvariance:
    """backends x workers against the serial reference, one pipeline."""

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
            X, k, backend=backends["serial"], **kwargs,
        )
        ref_fp = _fingerprint(reference)
        # workers=1 on the process backend runs every task inline on the
        # driver, still through the shared-memory specs.
        variants = [
            ("serial", 1),
            ("thread", workers),
            ("process", 1),
            ("process", workers),
        ]
        for name, n_workers in variants:
            report = mr_scalable_kmeans(
                X, k, backend=backends[name], **dict(kwargs, workers=n_workers),
            )
            assert _fingerprint(report) == ref_fp, (name, n_workers)

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
            backend=backends["serial"],
        ) as ref_rt:
            ref = ref_rt.run_job(make_lloyd_job(C))
        with LocalMapReduceRuntime(
            X, n_splits=n_splits, seed=seed, workers=2,
            backend=backends["process"],
        ) as rt:
            out = rt.run_job(make_lloyd_job(C))
        assert list(out.output.keys()) == list(ref.output.keys())
        for key in ref.output:
            assert len(ref.output[key]) == len(out.output[key])
            for a, b in zip(ref.output[key], out.output[key]):
                assert _freeze(a) == _freeze(b)


class RecordingCluster(ClusterModel):
    """The default cluster model, recording what each job is charged."""

    def __post_init__(self) -> None:
        super().__post_init__()
        self.charges: list[dict] = []

    def job_time(self, **charge):
        self.charges.append(charge)
        return super().job_time(**charge)


class TestPlaneTelemetryInvariants:
    def test_broadcast_charged_once_not_per_task(self, backends):
        """Every backend charges a job's broadcast once, on the network,
        and keeps it out of the map tasks' scan bytes."""
        rng = np.random.default_rng(0)
        X = rng.normal(size=(240, 6))
        C = X[:8].copy()
        times = {}
        for name in ("serial", "thread", "process"):
            with LocalMapReduceRuntime(
                X, n_splits=6, seed=0, workers=2, backend=backends[name],
            ) as rt:
                rt.run_job(make_lloyd_job(C))
                stats = rt.job_log[-1]
                once = rt.cluster.job_time(
                    map_flops_per_split=stats.map_flops_per_split,
                    map_bytes_per_split=[X.nbytes / 6] * 6,
                    shuffle_bytes=stats.shuffle_bytes,
                    reduce_flops=stats.reduce_flops,
                    broadcast_bytes=float(stats.broadcast_bytes),
                )
            assert stats.broadcast_bytes == C.nbytes
            assert stats.time == once, name
            times[name] = stats.time
        assert times["serial"] == times["thread"] == times["process"]

    def test_fit_simulated_minutes_backend_independent(self, backends):
        """One MR fit reads the same simulated minutes on every backend,
        and each job's broadcast is charged once, never in a task's scan."""
        rng = np.random.default_rng(2)
        X = rng.normal(size=(300, 5))
        minutes = {}
        for name in ("serial", "thread", "process"):
            cluster = RecordingCluster()
            report = mr_scalable_kmeans(
                X, 4, l=8.0, r=3, n_splits=4, seed=5, lloyd_max_iter=3,
                workers=3, backend=backends[name], cluster=cluster,
            )
            minutes[name] = report.simulated_minutes
            assert len(cluster.charges) == report.n_jobs
            for charge in cluster.charges:
                assert sum(charge["map_bytes_per_split"]) == X.nbytes
            broadcast = [c["broadcast_bytes"] for c in cluster.charges]
            assert sum(broadcast) == report.plane["broadcast_bytes_published"]
            assert sum(b > 0 for b in broadcast) >= report.lloyd_iters
        assert minutes["serial"] == minutes["thread"] == minutes["process"]

    def test_state_bytes_flat_in_rounds(self, backends):
        """Split state crosses once and is held once: more rounds and
        more jobs ship and hold the same bytes (the d2/argmin caches and
        the row norms, 8 bytes a row each)."""
        rng = np.random.default_rng(1)
        X = rng.normal(size=(400, 5))
        planes = []
        for rounds, iters in ((2, 2), (4, 4)):
            report = mr_scalable_kmeans(
                X, 4, l=8.0, r=rounds, n_splits=4, seed=3,
                lloyd_max_iter=iters, workers=3, backend=backends["process"],
            )
            planes.append(report.plane)
        short, long = planes
        assert short["state_bytes_resident"] == long["state_bytes_resident"]
        assert short["state_bytes_resident"] == 3 * 8 * X.shape[0]
        assert short["state_bytes_shipped"] == long["state_bytes_shipped"]
        assert long["state_bytes_shipped"] >= long["state_bytes_resident"]
        # On an in-process backend nothing crosses and nothing is held.
        report = mr_scalable_kmeans(
            X, 4, l=8.0, r=4, n_splits=4, seed=3, lloyd_max_iter=4,
            workers=3, backend=backends["thread"],
        )
        assert report.plane["state_bytes_shipped"] == 0
        assert report.plane["state_bytes_resident"] == 0
