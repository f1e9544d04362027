"""Shared-memory segment lifecycle through the MapReduce runtime.

Mirrors the spill-file finalizer tests in ``tests/shuffle`` /
``tests/mapreduce``: whatever happens to a job — normal completion,
``KeyboardInterrupt`` mid-map, a worker process dying, a fork — no
``/dev/shm`` segment may outlive its owner's cleanup.
"""

from __future__ import annotations

import errno
import gc
import os
import pathlib

import numpy as np
import pytest

from repro.exec import ProcessBackend, WorkerBudget
from repro.mapreduce.job import BlockMapper, MapReduceJob
from repro.mapreduce.jobs.common import ScalarSumReducer
from repro.mapreduce.jobs.cost_job import make_cost_job
from repro.mapreduce.jobs.lloyd_job import make_lloyd_job
from repro.mapreduce.runtime import LocalMapReduceRuntime
from repro.plane.shm import SEGMENT_PREFIX, active_owned_segments, release_all_segments

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="process-backend lifecycle tests are POSIX-only"
)

_DEV_SHM = pathlib.Path("/dev/shm")


def shm_leftovers() -> list[str]:
    """repro segments visible in /dev/shm (empty list where unsupported)."""
    if not _DEV_SHM.is_dir():
        return []
    return sorted(p.name for p in _DEV_SHM.glob(f"{SEGMENT_PREFIX}*"))


@pytest.fixture(autouse=True)
def _no_leaks_across_tests():
    release_all_segments()
    before = shm_leftovers()
    yield
    release_all_segments()
    assert shm_leftovers() == before


@pytest.fixture(scope="module")
def backend():
    backend = ProcessBackend(budget=WorkerBudget(3))
    yield backend
    backend.shutdown()


class InterruptingMapper(BlockMapper):
    """Raises KeyboardInterrupt on split 1 (module-level: picklable)."""

    def map_block(self, block):
        if self.ctx.split_id == 1:
            raise KeyboardInterrupt()
        yield "phi", float(block.sum())


class CrashingMapper(BlockMapper):
    """Kills the hosting *worker* process outright (never the driver).

    Any split dispatched to a pool worker dies mid-task; splits the
    scheduler runs inline on the driver complete normally — so the
    region deterministically ends in a broken process pool whenever at
    least one task left the driver.
    """

    def map_block(self, block):
        if os.getpid() != getattr(CrashingMapper, "driver_pid", -1):
            os._exit(13)  # simulate a hard worker crash
        yield "phi", float(block.sum())


def interrupt_job() -> MapReduceJob:
    return MapReduceJob(
        name="interrupt",
        mapper_factory=InterruptingMapper,
        reducer_factory=ScalarSumReducer,
        broadcast=np.arange(64, dtype=np.float64),
    )


def crash_job() -> MapReduceJob:
    return MapReduceJob(
        name="crash",
        mapper_factory=CrashingMapper,
        reducer_factory=ScalarSumReducer,
        broadcast=np.arange(64, dtype=np.float64),
    )


class TestSegmentLifecycle:
    def test_normal_completion_frees_broadcast_keeps_state(self, rng, backend):
        X = rng.normal(size=(120, 4))
        rt = LocalMapReduceRuntime(
            X, n_splits=3, seed=0, workers=3, backend=backend
        )
        rt.run_job(make_cost_job(X[:4]))
        names = active_owned_segments()
        # Broadcast segments are job-scoped (freed); state segments persist.
        assert names and all("_st" in n for n in names)
        rt.run_job(make_lloyd_job(X[:4]))
        assert all("_st" in n for n in active_owned_segments())
        rt.shutdown()
        assert active_owned_segments() == []
        assert shm_leftovers() == []

    def test_keyboard_interrupt_frees_broadcast_segment(self, rng, backend):
        X = rng.normal(size=(120, 4))
        rt = LocalMapReduceRuntime(
            X, n_splits=3, seed=0, workers=3, backend=backend
        )
        with pytest.raises(KeyboardInterrupt):
            rt.run_job(interrupt_job())
        assert all("_st" in n for n in active_owned_segments())
        rt.shutdown()
        assert active_owned_segments() == []

    def test_worker_crash_frees_segments(self, rng):
        # A dedicated backend: the crash breaks its process pool.
        backend = ProcessBackend(budget=WorkerBudget(3))
        CrashingMapper.driver_pid = os.getpid()
        X = rng.normal(size=(120, 4))
        try:
            rt = LocalMapReduceRuntime(
                X, n_splits=3, seed=0, workers=3, backend=backend,
            )
            with pytest.raises(Exception):  # BrokenProcessPool (or wrapped)
                rt.run_job(crash_job())
            rt.shutdown()
            assert active_owned_segments() == []
        finally:
            backend.shutdown()

    def test_abandoned_runtime_gc_frees_segments(self, rng, backend):
        X = rng.normal(size=(120, 4))
        rt = LocalMapReduceRuntime(
            X, n_splits=3, seed=0, workers=3, backend=backend
        )
        rt.run_job(make_cost_job(X[:4]))
        assert active_owned_segments()
        del rt  # no shutdown(): the GC finalizers must clean up
        gc.collect()
        assert active_owned_segments() == []

    def test_fork_child_exit_leaves_parent_segments(self, rng, backend):
        X = rng.normal(size=(120, 4))
        rt = LocalMapReduceRuntime(
            X, n_splits=3, seed=0, workers=3, backend=backend
        )
        rt.run_job(make_cost_job(X[:4]))
        names = active_owned_segments()
        assert names
        pid = os.fork()
        if pid == 0:
            # Exercise every cleanup path the child could plausibly run:
            # the inherited finalizers and registry are pid-keyed, so
            # none of this may touch the parent's live segments.
            release_all_segments()
            gc.collect()
            os._exit(0)
        os.waitpid(pid, 0)
        assert active_owned_segments() == names
        # And the segments are still attachable/alive, not just recorded.
        phi_after = rt.run_job(make_cost_job(X[4:6], offset=4))
        assert phi_after is not None
        rt.shutdown()
        assert active_owned_segments() == []

    def test_full_dev_shm_falls_back_inline(self, rng, backend, monkeypatch):
        """With no room in /dev/shm, broadcasts and split state ship by
        value: the fit completes, bit-identical to the serial reference,
        and no segment is left behind."""
        from repro.exec import SerialBackend
        from repro.mapreduce.kmeans_mr import mr_scalable_kmeans
        from repro.plane import shm as plane_shm

        X = rng.normal(size=(300, 4))
        kwargs = dict(l=6.0, r=2, n_splits=3, seed=0, lloyd_max_iter=3, workers=3)
        reference = mr_scalable_kmeans(X, 3, backend=SerialBackend(), **kwargs)
        attempts = []

        def no_room(shm, nbytes):
            attempts.append(nbytes)
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(plane_shm, "_reserve_pages", no_room)
        report = mr_scalable_kmeans(X, 3, backend=backend, **kwargs)
        assert attempts  # the plane tried, and fell back
        assert report.centers.tobytes() == reference.centers.tobytes()
        assert report.seed_cost == reference.seed_cost
        assert report.final_cost == reference.final_cost
        assert report.simulated_minutes == reference.simulated_minutes
        assert report.plane["state_bytes_resident"] == 0  # nothing held
        assert report.plane["state_bytes_shipped"] > 0  # all by value
        assert active_owned_segments() == []
        assert shm_leftovers() == []

    def test_pipeline_leaves_no_dev_shm_entries(self, rng, backend):
        from repro.mapreduce.kmeans_mr import mr_scalable_kmeans

        X = rng.normal(size=(150, 4))
        report = mr_scalable_kmeans(
            X, 3, l=6.0, r=2, n_splits=3, seed=0, lloyd_max_iter=2,
            workers=3, backend=backend,
        )
        assert report.plane["state_bytes_resident"] > 0  # segments were used
        assert active_owned_segments() == []  # runtime context exit cleans up
        assert shm_leftovers() == []
