"""A file rewritten at a cached path is read afresh, never from the old map.

Split descriptors memory-map their file once per process and cache the
map by path.  A ``.npy`` deleted and saved again, overwritten in place,
or a CSR directory rewritten must be re-opened: a stale map serves the
old rows (or the old header over the new bytes) without any error, and a
MapReduce run over the path then mixes data sets.  Nor may the cache keep
a map of a file that is gone: a long-lived driver that fits many files
would keep them all mapped, and their disk space unreclaimed.
"""

from __future__ import annotations

import os
import pathlib

import numpy as np
import pytest

from repro.data.splits import MmapSplitSource
from repro.mapreduce.kmeans_mr import mr_scalable_kmeans
from repro.mapreduce.runtime import LocalMapReduceRuntime


def _load(path, n):
    return np.asarray(MmapSplitSource(path).descriptor(0, n).load())


def test_deleted_and_saved_again(tmp_path):
    path = tmp_path / "x.npy"
    np.save(path, np.zeros((50, 4)))
    assert _load(path, 50).max() == 0.0
    path.unlink()
    np.save(path, np.ones((50, 4)))
    np.testing.assert_array_equal(_load(path, 50), np.ones((50, 4)))


def test_overwritten_in_place_with_a_new_shape(tmp_path):
    path = tmp_path / "x.npy"
    np.save(path, np.zeros((50, 4)))
    assert _load(path, 50).shape == (50, 4)
    new = np.arange(30 * 3, dtype=np.float64).reshape(30, 3)
    np.save(path, new)  # same inode: np.save truncates the open file
    np.testing.assert_array_equal(_load(path, 30), new)


def test_a_source_built_before_a_rewrite_describes_the_new_file(tmp_path):
    # The source's shape and dtype come from the map it serves, so they
    # agree with its rows and its descriptors, and the runtime splits the
    # rows the file holds now.
    path = tmp_path / "x.npy"
    np.save(path, np.zeros((50, 4)))
    source = MmapSplitSource(path)
    new = np.random.default_rng(4).normal(size=(30, 3))
    np.save(path, new)
    assert source.shape == source.as_array().shape == (30, 3)
    assert source.dtype == new.dtype
    np.testing.assert_array_equal(source.descriptor(0, 30).load(), new)
    with LocalMapReduceRuntime(source, n_splits=4, seed=0) as runtime:
        assert sum(split.shape[0] for split in runtime.splits) == 30
    kwargs = dict(l=6.0, r=2, n_splits=4, seed=3, lloyd_max_iter=2, backend="serial")
    from_source = mr_scalable_kmeans(source, 3, **kwargs)
    in_memory = mr_scalable_kmeans(new, 3, **kwargs)
    assert from_source.centers.tobytes() == in_memory.centers.tobytes()
    assert from_source.final_cost == in_memory.final_cost


def test_csr_directory_rewritten(tmp_path):
    scipy_sparse = pytest.importorskip("scipy.sparse")
    from repro.data.splits import CsrSplitSource, save_csr_dir

    old = np.zeros((20, 5))
    old[::4, 1] = 1.0
    new = np.arange(20 * 5, dtype=np.float64).reshape(20, 5) % 3
    directory = tmp_path / "csr"
    save_csr_dir(scipy_sparse.csr_matrix(old), directory)
    first = CsrSplitSource(directory).descriptor(0, 20).load()
    np.testing.assert_array_equal(first.toarray(), old)
    save_csr_dir(scipy_sparse.csr_matrix(new), directory)
    again = CsrSplitSource(directory).descriptor(0, 20).load()
    np.testing.assert_array_equal(again.toarray(), new)


def test_mr_pipeline_reads_the_new_file(tmp_path):
    rng = np.random.default_rng(5)
    path = tmp_path / "data.npy"
    kwargs = dict(l=8.0, r=2, n_splits=4, seed=3, lloyd_max_iter=3, backend="serial")
    np.save(path, rng.normal(size=(300, 4)))
    mr_scalable_kmeans(path, 4, **kwargs)
    path.unlink()
    X = rng.normal(size=(300, 4)) + 5.0
    np.save(path, X)
    from_path = mr_scalable_kmeans(path, 4, **kwargs)
    in_memory = mr_scalable_kmeans(X, 4, **kwargs)
    assert from_path.centers.tobytes() == in_memory.centers.tobytes()
    assert from_path.seed_cost == in_memory.seed_cost
    assert from_path.final_cost == in_memory.final_cost


def _mapped(paths):
    """Lines of this process's memory maps that name any of ``paths``."""
    with open("/proc/self/maps", encoding="utf-8") as maps:
        return [line for line in maps if any(str(p) in line for p in paths)]


@pytest.mark.skipif(
    not os.path.exists("/proc/self/maps"), reason="needs /proc/self/maps"
)
def test_fits_over_deleted_files_leave_no_maps(tmp_path):
    from repro.data import splits

    rng = np.random.default_rng(8)
    kwargs = dict(l=8.0, r=2, n_splits=4, seed=3, lloyd_max_iter=2, backend="serial")
    paths = []
    for i in range(3):
        path = tmp_path / f"fit-{i}.npy"
        np.save(path, rng.normal(size=(300, 4)))
        mr_scalable_kmeans(path, 4, **kwargs)
        path.unlink()
        paths.append(path.resolve())
    assert not [p for p in splits._MMAP_CACHE if pathlib.Path(p) in paths]
    assert _mapped(paths) == []


def test_a_miss_drops_entries_of_deleted_files(tmp_path):
    from repro.data import splits

    old, new = tmp_path / "old.npy", tmp_path / "new.npy"
    np.save(old, np.zeros((10, 2)))
    np.save(new, np.ones((10, 2)))
    _load(old, 10)
    assert str(old.resolve()) in splits._MMAP_CACHE
    old.unlink()
    _load(new, 10)
    assert str(old.resolve()) not in splits._MMAP_CACHE
    assert str(new.resolve()) in splits._MMAP_CACHE


@pytest.mark.skipif(
    not os.path.exists("/proc/self/maps") or not hasattr(os, "fork"),
    reason="needs /proc/<pid>/maps and fork",
)
def test_worker_processes_drop_maps_of_deleted_files(tmp_path):
    """A worker forked during a fit inherits the driver's frames, which
    it never unwinds; the sources in them must hold no map of their own,
    or the worker keeps the first fit's file mapped for good."""
    from repro.exec import ProcessBackend, WorkerBudget

    rng = np.random.default_rng(9)
    kwargs = dict(l=8.0, r=2, n_splits=6, seed=3, lloyd_max_iter=2, workers=4)
    backend = ProcessBackend(budget=WorkerBudget(4))
    paths = []
    try:
        for i in range(3):
            path = tmp_path / f"f{i}.npy"
            np.save(path, rng.normal(size=(600, 4)))
            mr_scalable_kmeans(path, 4, backend=backend, **kwargs)
            path.unlink()
            paths.append(path.resolve())
        workers = list(backend._proc_pool._processes)
        assert len(workers) == 3
        for pid in workers:
            with open(f"/proc/{pid}/maps", encoding="utf-8") as maps:
                held = [line for line in maps if any(str(p) in line for p in paths[:2])]
            assert held == [], pid
    finally:
        backend.shutdown()
