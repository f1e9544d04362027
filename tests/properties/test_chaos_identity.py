"""Chaos property: kill workers anywhere — outputs stay bit-identical.

The fault-tolerance acceptance gate.  Workers are killed at random and
at targeted points (before/after map tasks, before/after reduce tasks,
under any retry budget >= 1), on the thread backend (inline simulated
crashes) and the process backend (real ``os._exit`` worker deaths with
resident plane state, at two worker counts, in-memory and spilling
shuffle stores) —
and every run must produce centers, costs, counters, and key order
bit-identical to a fault-free serial run.  Crash cleanup must leak
nothing: no ``/dev/shm`` segment and no ``repro-shuffle-*`` spill
directory survives a run whose every retry was exhausted.
"""

from __future__ import annotations

import os
import pathlib
import tempfile

import numpy as np
import pytest

from repro.exceptions import TaskFailedError
from repro.exec import (
    ChaosInjector,
    FaultInjector,
    ProcessBackend,
    RetryPolicy,
    SerialBackend,
    SimulatedWorkerCrash,
    ThreadBackend,
    WorkerBudget,
    reset_region_ids,
    set_fault_injector,
)
from repro.mapreduce.kmeans_mr import mr_scalable_kmeans
from repro.mapreduce.runtime import LocalMapReduceRuntime
from repro.mapreduce.jobs.cost_job import make_cost_job
from repro.plane.shm import SEGMENT_PREFIX, active_owned_segments, release_all_segments

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="chaos worker-kill tests are POSIX-only"
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
def _clean_chaos_state():
    prev = set_fault_injector(None)
    # Region ids are process-global and feed the chaos hash; reset so
    # every test sees the same kill schedule regardless of what ran
    # before it in the session.
    reset_region_ids()
    release_all_segments()
    shm_before, spill_before = shm_leftovers(), spill_leftovers()
    yield
    set_fault_injector(prev)
    release_all_segments()
    assert shm_leftovers() == shm_before
    assert spill_leftovers() == spill_before


class KillRegion(FaultInjector):
    """Kill every first attempt in regions whose name matches a substring.

    Region names are ``{fn.__name__}#{serial}``, so ``_execute_map_task``
    targets exactly the map phase and ``_execute_reduce_task`` the
    reduce phase.  First attempts only: any retry budget >= 1 converges.
    """

    def __init__(self, region_substr, point="before"):
        self.region_substr = region_substr
        self.point = point
        self.driver_pid = os.getpid()

    def fire(self, point, region, index, attempt):
        if point != self.point or attempt != 0:
            return
        if self.region_substr not in region:
            return
        if os.getpid() != self.driver_pid:
            os._exit(29)
        raise SimulatedWorkerCrash(f"killed {region}[{index}] at {point}")


class KillForever(FaultInjector):
    """Kill every map-task attempt, ever — retries must exhaust."""

    def __init__(self):
        self.driver_pid = os.getpid()

    def fire(self, point, region, index, attempt):
        if point == "before" and "_execute_map_task" in region:
            if os.getpid() != self.driver_pid:
                os._exit(29)
            raise SimulatedWorkerCrash(f"always killing {region}[{index}]")


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    rng = np.random.default_rng(1)
    X = rng.normal(size=(240, 3))
    path = tmp_path_factory.mktemp("chaos") / "data.npy"
    np.save(path, X)
    return str(path)


def _pipeline(path, *, backend, workers=3, **kwargs):
    return mr_scalable_kmeans(
        path, 3, l=4.0, r=2, n_splits=4, seed=7, lloyd_max_iter=2,
        workers=workers, backend=backend, **kwargs,
    )


@pytest.fixture(scope="module")
def reference(dataset):
    return _pipeline(dataset, backend=SerialBackend(), workers=1)


def _assert_identical(report, reference):
    np.testing.assert_array_equal(report.centers, reference.centers)
    assert report.seed_cost == reference.seed_cost
    assert report.final_cost == reference.final_cost
    assert report.lloyd_iters == reference.lloyd_iters
    assert report.n_candidates == reference.n_candidates
    assert report.n_jobs == reference.n_jobs


class TestThreadChaosIdentity:
    @pytest.mark.parametrize("point", ["before", "after"])
    @pytest.mark.parametrize(
        "region_substr", ["_execute_map_task", "_execute_reduce_task"]
    )
    @pytest.mark.parametrize("budget", [1, 3])
    def test_targeted_kills_bit_identical(
        self, dataset, reference, point, region_substr, budget
    ):
        set_fault_injector(KillRegion(region_substr, point=point))
        backend = ThreadBackend(budget=WorkerBudget(3))
        try:
            report = _pipeline(
                dataset,
                backend=backend,
                retry_policy=RetryPolicy(max_task_retries=budget, backoff_s=0.0),
            )
        finally:
            backend.shutdown()
        _assert_identical(report, reference)
        assert report.faults["retries"] >= 1
        assert report.faults["crashes"] >= 1

    def test_exhausted_retries_surface_task_failed(self, dataset):
        set_fault_injector(KillForever())
        backend = ThreadBackend(budget=WorkerBudget(3))
        try:
            with pytest.raises(TaskFailedError) as excinfo:
                _pipeline(
                    dataset,
                    backend=backend,
                    retry_policy=RetryPolicy(max_task_retries=1, backoff_s=0.0),
                )
        finally:
            backend.shutdown()
        assert excinfo.value.attempts == 2
        assert "SimulatedWorkerCrash" in excinfo.value.original_traceback


class TestProcessChaosIdentity:
    @pytest.mark.parametrize("seed", [11, 14])
    @pytest.mark.parametrize("workers", [2, 3])
    def test_random_worker_deaths_bit_identical(
        self, dataset, reference, seed, workers
    ):
        set_fault_injector(ChaosInjector(rate=0.08, seed=seed))
        backend = ProcessBackend(budget=WorkerBudget(3))
        try:
            report = _pipeline(dataset, backend=backend, workers=workers)
        finally:
            backend.shutdown()
            set_fault_injector(None)
        _assert_identical(report, reference)
        assert report.faults["retries"] >= 1

    def test_spilling_shuffle_under_chaos_bit_identical(self, dataset, reference):
        set_fault_injector(ChaosInjector(rate=0.08, seed=11))
        backend = ProcessBackend(budget=WorkerBudget(3))
        try:
            report = _pipeline(
                dataset,
                backend=backend,
                shuffle_budget=1,  # force every job's shuffle to spill
            )
        finally:
            backend.shutdown()
            set_fault_injector(None)
        _assert_identical(report, reference)
        assert report.faults["retries"] >= 1

    def test_reduce_kill_mid_window_spilling_bit_identical(self, dataset, reference):
        """Satellite regression: spill-run lifetime vs reduce retries.

        A reduce task's worker is killed mid-window on the *spilling*
        store (budget=1: every window streams from the external merge).
        The retry must find the job's spill runs still on disk — they
        are job-scoped, closed only at store close — and reproduce the
        serial fault-free output bit-exactly, leaking no spill files.
        """
        set_fault_injector(KillRegion("_execute_reduce_task", point="before"))
        backend = ProcessBackend(budget=WorkerBudget(3))
        try:
            report = _pipeline(
                dataset,
                backend=backend,
                shuffle_budget=1,  # force every job's shuffle to spill
                retry_policy=RetryPolicy(max_task_retries=2, backoff_s=0.0),
            )
        finally:
            backend.shutdown()
            set_fault_injector(None)
        _assert_identical(report, reference)
        assert report.faults["retries"] >= 1
        assert report.faults["crashes"] >= 1

    def test_crashed_run_leaks_nothing(self, dataset):
        """Satellite regression: a run whose retries exhaust mid-map must
        still free its shm broadcast segment and spill temp files."""
        set_fault_injector(KillForever())  # every attempt dies: retries exhaust
        backend = ProcessBackend(budget=WorkerBudget(3))
        runtime = LocalMapReduceRuntime(
            dataset,
            n_splits=4,
            seed=7,
            workers=3,
            backend=backend,
            shuffle_budget=1,
            retry_policy=RetryPolicy(max_task_retries=1, backoff_s=0.0),
        )
        rng = np.random.default_rng(0)
        centers = rng.normal(size=(3, 3))
        try:
            with pytest.raises(TaskFailedError):
                runtime.run_job(make_cost_job(centers))
        finally:
            runtime.shutdown()
            backend.shutdown()
            set_fault_injector(None)
        assert active_owned_segments() == []
