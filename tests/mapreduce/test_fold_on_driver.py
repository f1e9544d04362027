"""One fold per job: map tasks in one backend region, reducers on the driver.

Every job is one parallel region of map tasks.  Each output key's
per-split values are then folded on the driver's thread by a fresh
reducer, over that key's values in split order, keys in sorted order,
whatever backend ran the map tasks.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np
import pytest

from repro.exec import ProcessBackend, SerialBackend, ThreadBackend, WorkerBudget
from repro.mapreduce.job import BlockMapper, MapReduceJob, Reducer
from repro.mapreduce.kmeans_mr import mr_scalable_kmeans
from repro.mapreduce.runtime import LocalMapReduceRuntime

N_SPLITS = 5
KEYS = ("delta", "alpha", "foxtrot", "charlie", "echo", "bravo")

#: (pid, thread id, key, values) of every reduce call, in call order.
REDUCE_CALLS: list[tuple[int, int, str, list[int]]] = []


class SplitIdMapper(BlockMapper):
    """Each split emits its id under every key, keys in a split-dependent order."""

    def map_block(self, block):
        r = self.ctx.split_id % len(KEYS)
        for key in KEYS[r:] + KEYS[:r]:
            yield key, self.ctx.split_id


class RecordingReducer(Reducer):
    def reduce(self, key, values):
        # Long enough for a backend's other lanes to claim work, were
        # reducers scheduled through it.
        time.sleep(0.02)
        REDUCE_CALLS.append((os.getpid(), threading.get_ident(), key, list(values)))
        self.work += len(values)
        yield key, sum(values)


def _backend(name):
    if name == "process":
        if not hasattr(os, "fork"):
            pytest.skip("process backend needs fork")
        return ProcessBackend(budget=WorkerBudget(3))
    if name == "thread":
        return ThreadBackend(budget=WorkerBudget(3))
    return SerialBackend()


@pytest.mark.parametrize("name", ["serial", "thread", "process"])
def test_reducer_runs_on_the_driver_once_per_key_in_split_order(name):
    REDUCE_CALLS.clear()
    X = np.random.default_rng(0).normal(size=(60, 2))
    backend = _backend(name)
    job = MapReduceJob(
        name="fold", mapper_factory=SplitIdMapper, reducer_factory=RecordingReducer
    )
    try:
        with LocalMapReduceRuntime(
            X, n_splits=N_SPLITS, seed=0, workers=3, backend=backend
        ) as runtime:
            result = runtime.run_job(job)
    finally:
        backend.shutdown()
    driver = (os.getpid(), threading.get_ident())
    assert [call[:2] for call in REDUCE_CALLS] == [driver] * len(KEYS)
    assert [call[2] for call in REDUCE_CALLS] == sorted(KEYS)
    for _, _, _, values in REDUCE_CALLS:
        assert values == list(range(N_SPLITS))
    assert list(result.output) == sorted(KEYS)
    assert result.stats.reduce_flops == len(KEYS) * N_SPLITS


@pytest.mark.parametrize("name", ["serial", "thread", "process"])
def test_one_backend_region_per_job(name, tmp_path):
    X = np.random.default_rng(1).normal(size=(400, 3))
    path = tmp_path / "x.npy"
    np.save(path, X)
    backend = _backend(name)
    regions = []
    run_calls = backend.run_calls

    def spy(fn, calls, **kwargs):
        regions.append(fn.__name__)
        return run_calls(fn, calls, **kwargs)

    backend.run_calls = spy
    try:
        report = mr_scalable_kmeans(
            str(path), 4, l=8.0, r=3, n_splits=N_SPLITS, seed=3,
            lloyd_max_iter=3, workers=3, backend=backend,
        )
    finally:
        backend.shutdown()
    assert report.n_jobs >= 1 + 2 * 3 + 1 + report.lloyd_iters
    assert regions == ["_execute_map_task"] * report.n_jobs
