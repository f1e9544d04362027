"""The kernels' kept scratch: never shared, never multiplied, never re-made.

The distance tiles and the cluster-sums index buffer come from one
module-level free list of byte buffers
(:func:`repro.linalg.distances._scratch`).  A taken buffer belongs to one
kernel until it is handed back, so nested and concurrent kernels cannot
alias; the list holds only as many buffers as were ever taken at once;
and a repeated call allocates no new scratch.
"""

from __future__ import annotations

import sys
import threading
import tracemalloc

import numpy as np
import pytest

from repro.linalg import distances
from repro.linalg.centroids import cluster_sums
from repro.linalg.distances import (
    _sq_dist_tiles,
    _tile_step,
    assign_labels,
    min_sq_dists,
    row_norms_sq,
)
from repro.linalg.engine import Engine, set_engine


@pytest.fixture(autouse=True)
def _fresh_free_list(monkeypatch):
    # A serial engine: the buffer counts below are per chunk in flight.
    monkeypatch.setattr(distances, "_scratch_free", [])
    previous = set_engine(Engine(workers=1))
    yield
    set_engine(previous)


def frozen_d2(block, C):
    """The unclamped expansion, term by term."""
    return row_norms_sq(block)[:, None] - 2.0 * (block @ C.T) + row_norms_sq(C)[None, :]


def frozen_min(X, C):
    return np.maximum(frozen_d2(X, C), 0.0).min(axis=1)


def test_open_tile_walk_keeps_its_buffer_while_another_kernel_runs():
    rng = np.random.default_rng(0)
    k = 32
    X, C = rng.standard_normal((3 * _tile_step(k), 8)), rng.standard_normal((k, 8))
    # Y's one tile fits in X's buffer, so a shared buffer would be reused.
    Y, D = rng.standard_normal((_tile_step(k) // 2, 8)), rng.standard_normal((k, 8))
    walk = _sq_dist_tiles(X, slice(0, X.shape[0]), None, -2.0 * C, row_norms_sq(C))
    rows, d2 = next(walk)
    held = d2.copy()
    assert held.tobytes() == frozen_d2(X[rows], C).tobytes()

    # A second walk on the same thread, and a whole kernel, meanwhile.
    other = _sq_dist_tiles(Y, slice(0, Y.shape[0]), None, -2.0 * D, row_norms_sq(D))
    _, e2 = next(other)
    assert not np.shares_memory(d2, e2)
    other.close()
    got = min_sq_dists(Y, D)

    assert got.tobytes() == frozen_min(Y, D).tobytes()
    assert d2.tobytes() == held.tobytes()  # nobody wrote into the open tile
    for rows, d2 in walk:
        assert d2.tobytes() == frozen_d2(X[rows], C).tobytes()
    assert len(distances._scratch_free) == 2  # two were taken at once


def test_concurrent_assign_labels_and_cluster_sums_give_the_serial_bits():
    rng = np.random.default_rng(1)
    k = 16
    X, C = rng.standard_normal((5 * _tile_step(k) + 3, 24)), rng.standard_normal((k, 24))
    chunk = 8 * k * (2 * _tile_step(k) + 1)  # several chunks of several tiles
    labels_ref, d2_ref = assign_labels(X, C, chunk_bytes=chunk, return_sq_dists=True)
    sums_ref = cluster_sums(X, labels_ref, k, chunk_bytes=24 * 24 * 1000)
    errors = []

    def assign():
        barrier.wait()
        for _ in range(10):
            labels, d2 = assign_labels(X, C, chunk_bytes=chunk, return_sq_dists=True)
            if labels.tobytes() != labels_ref.tobytes() or d2.tobytes() != d2_ref.tobytes():
                errors.append("assign_labels")

    def sums():
        barrier.wait()
        for _ in range(10):
            got = cluster_sums(X, labels_ref, k, chunk_bytes=24 * 24 * 1000)
            if got.tobytes() != sums_ref.tobytes():
                errors.append("cluster_sums")

    # Two of each, more threads than a small box has cores.
    threads = [threading.Thread(target=f) for f in (assign, sums, assign, sums)]
    barrier = threading.Barrier(len(threads))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert 1 <= len(distances._scratch_free) <= len(threads)


def test_eight_threads_one_after_another_leave_one_buffer():
    rng = np.random.default_rng(2)
    X, C = rng.standard_normal((3000, 8)), rng.standard_normal((40, 8))
    want = frozen_min(X, C).tobytes()
    got = []
    for _ in range(8):
        t = threading.Thread(target=lambda: got.append(min_sq_dists(X, C).tobytes()))
        t.start()
        t.join(timeout=60)
        assert not t.is_alive()
    assert got == [want] * 8
    assert len(distances._scratch_free) == 1


def test_second_cluster_sums_call_allocates_no_index_array():
    rng = np.random.default_rng(3)
    n, d, k = 50_000, 64, 16
    X, labels = rng.standard_normal((n, d)), rng.integers(0, k, n)
    first = cluster_sums(X, labels, k)
    tracemalloc.start()
    try:
        second = cluster_sums(X, labels, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert second.tobytes() == first.tobytes()
    assert peak < 2 << 20, f"second call allocated {peak} bytes"
