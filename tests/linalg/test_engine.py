"""Tests for repro.linalg.engine: scheduling, config, and invariance."""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.linalg.centroids import cluster_sums, weighted_centroids
from repro.linalg.distances import (
    assign_labels,
    min_sq_dists,
    update_min_sq_dists,
    update_min_sq_dists_argmin,
)
from repro.linalg.engine import Engine, get_engine, set_engine, use_engine
from repro.utils.chunking import DEFAULT_CHUNK_BYTES


@pytest.fixture(autouse=True)
def _reset_engine():
    """Each test starts from (and restores) the default engine."""
    previous = set_engine(None)
    yield
    set_engine(previous)


class TestEngineConfig:
    def test_defaults(self):
        eng = Engine()
        assert eng.workers == 1
        assert eng.chunk_bytes == DEFAULT_CHUNK_BYTES

    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_WORKERS", "3")
        eng = Engine()
        assert eng.workers == 3
        assert eng.chunk_bytes == DEFAULT_CHUNK_BYTES

    def test_env_invalid(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_WORKERS", "many")
        with pytest.raises(ValidationError, match="integer"):
            Engine()

    def test_invalid_args(self):
        with pytest.raises(ValidationError):
            Engine(workers=0)
        with pytest.raises(ValidationError):
            Engine(chunk_bytes=0)

    def test_set_and_get(self):
        eng = Engine(workers=2)
        assert set_engine(eng) is not eng
        assert get_engine() is eng

    def test_use_engine_restores(self):
        outer = get_engine()
        with use_engine(workers=2) as eng:
            assert get_engine() is eng
            assert eng.workers == 2
        assert get_engine() is outer

    def test_use_engine_restores_on_error(self):
        outer = get_engine()
        with pytest.raises(RuntimeError):
            with use_engine(workers=2):
                raise RuntimeError("boom")
        assert get_engine() is outer

    def test_use_engine_rejects_both(self):
        with pytest.raises(ValidationError, match="not both"):
            with use_engine(Engine(), workers=2):
                pass

    def test_repr(self):
        assert "workers=2" in repr(Engine(workers=2))

    def test_lock_free_reads_see_only_whole_engines(self):
        """Readers racing ``use_engine`` and ``set_engine(None)`` never see ``None``."""
        stop = threading.Event()
        seen = []
        bad = []

        def reader():
            while not stop.is_set():
                engine = get_engine()
                try:
                    whole = engine.workers >= 1 and engine.chunk_bytes >= 1
                except AttributeError:
                    whole = False
                if not (isinstance(engine, Engine) and whole):
                    bad.append(engine)
                seen.append(None)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        readers = [threading.Thread(target=reader) for _ in range(3)]
        try:
            for t in readers:
                t.start()
            for i in range(2000):
                with use_engine(Engine(workers=1 + i % 2, chunk_bytes=1 << (10 + i % 5))):
                    set_engine(None)
                set_engine(None)
        finally:
            stop.set()
            for t in readers:
                t.join(timeout=30)
            sys.setswitchinterval(switch)
        assert bad == []
        assert len(seen) > 2000


class TestScheduling:
    def test_run_chunks_covers_all_rows(self):
        eng = Engine(workers=1, chunk_bytes=64)
        seen = np.zeros(100, dtype=np.int64)

        def work(sl):
            seen[sl] += 1

        n_blocks = eng.run_chunks(100, 8, work)
        assert n_blocks > 1
        assert (seen == 1).all()

    def test_run_chunks_parallel_disjoint_writes(self):
        eng = Engine(workers=4, chunk_bytes=256)
        out = np.zeros(1000)
        threads = set()
        lock = threading.Lock()

        def work(sl):
            with lock:
                threads.add(threading.get_ident())
            out[sl] = np.arange(sl.start, sl.stop)

        eng.run_chunks(1000, 8, work)
        np.testing.assert_array_equal(out, np.arange(1000))
        eng.shutdown()

    def test_map_chunks_preserves_order(self):
        eng = Engine(workers=4, chunk_bytes=64)
        starts = eng.map_chunks(100, 8, lambda sl: sl.start)
        assert starts == sorted(starts)
        eng.shutdown()

    def test_worker_exception_propagates(self):
        eng = Engine(workers=2, chunk_bytes=8)

        def work(sl):
            raise ValueError("kernel failure")

        with pytest.raises(ValueError, match="kernel failure"):
            eng.run_chunks(10, 8, work)
        eng.shutdown()

    def test_chunk_bytes_override(self):
        eng = Engine(workers=1, chunk_bytes=10**9)
        assert eng.run_chunks(100, 8, lambda sl: None, chunk_bytes=80) > 1


class TestKernelInvariance:
    """Kernel results must not depend on worker count or chunk size."""

    @pytest.fixture()
    def data(self, rng):
        X = rng.normal(size=(500, 7))
        C = X[rng.choice(500, 23, replace=False)]
        return X, C

    def test_worker_count_invariance(self, data, rng):
        X, C = data
        w = rng.uniform(0.0, 2.0, X.shape[0])
        labels_ref, d2_ref = assign_labels(X, C, return_sq_dists=True)
        min_ref = min_sq_dists(X, C)
        sums_ref = cluster_sums(X, labels_ref, C.shape[0], weights=w)
        for workers in (2, 4):
            # Small chunks force many blocks so the pool really fans out.
            with use_engine(workers=workers, chunk_bytes=4096):
                labels, d2 = assign_labels(X, C, return_sq_dists=True)
                np.testing.assert_array_equal(labels, labels_ref)
                np.testing.assert_array_equal(d2, d2_ref)
                np.testing.assert_array_equal(min_sq_dists(X, C), min_ref)
                np.testing.assert_allclose(
                    cluster_sums(X, labels, C.shape[0], weights=w),
                    sums_ref,
                    rtol=1e-12,
                )

    def test_chunk_size_invariance(self, data):
        X, C = data
        labels_ref, d2_ref = assign_labels(X, C, return_sq_dists=True)
        for chunk_bytes in (1, 512, 10**8):
            with use_engine(workers=1, chunk_bytes=chunk_bytes):
                labels, d2 = assign_labels(X, C, return_sq_dists=True)
            np.testing.assert_array_equal(labels, labels_ref)
            if chunk_bytes >= 2 * 8 * C.shape[0]:
                # Blocks of two or more rows are GEMMs: the same bits.
                np.testing.assert_array_equal(d2, d2_ref)
            else:
                # A one-row block is a matrix-vector product (NumPy calls
                # gemv), which rounds differently from a GEMM.
                np.testing.assert_allclose(d2, d2_ref, rtol=1e-9, atol=1e-9)

    def test_update_kernels_parallel(self, data):
        X, C = data
        base_ref = min_sq_dists(X, C[:10])
        cur_ref = base_ref.copy()
        near_ref = assign_labels(X, C[:10])
        update_min_sq_dists_argmin(X, C[10:], cur_ref, near_ref, offset=10)
        with use_engine(workers=4, chunk_bytes=2048):
            cur = min_sq_dists(X, C[:10])
            np.testing.assert_array_equal(cur, base_ref)
            near = assign_labels(X, C[:10])
            update_min_sq_dists_argmin(X, C[10:], cur, near, offset=10)
        np.testing.assert_array_equal(cur, cur_ref)
        np.testing.assert_array_equal(near, near_ref)
        with use_engine(workers=4, chunk_bytes=2048):
            upd = update_min_sq_dists(X, C[10:], base_ref.copy())
        np.testing.assert_array_equal(upd, cur_ref)

    def test_weighted_centroids_parallel(self, data, rng):
        X, C = data
        labels = assign_labels(X, C)
        ref_centers, ref_mass = weighted_centroids(X, labels, C.shape[0])
        with use_engine(workers=3, chunk_bytes=4096):
            centers, mass = weighted_centroids(X, labels, C.shape[0])
        np.testing.assert_array_equal(mass, ref_mass)
        np.testing.assert_allclose(centers, ref_centers, rtol=1e-12, equal_nan=True)

    def test_cluster_sums_empty_input(self):
        out = cluster_sums(np.empty((0, 3)), np.empty(0, dtype=np.int64), 4)
        np.testing.assert_array_equal(out, np.zeros((4, 3)))

    def test_use_engine_releases_pool_threads(self):
        import threading

        X = np.random.default_rng(0).normal(size=(200, 3))
        C = X[:5]
        before = threading.active_count()
        for _ in range(3):
            with use_engine(workers=4, chunk_bytes=512):
                assign_labels(X, C)
        # Scoped pools must not accumulate across scopes.
        assert threading.active_count() <= before + 4

    def test_reduce_chunks_matches_map_chunks_fold(self):
        for workers in (1, 3):
            eng = Engine(workers=workers, chunk_bytes=64)
            total = eng.reduce_chunks(100, 8, lambda sl: np.arange(sl.start, sl.stop).sum())
            assert total == np.arange(100).sum()
            eng.shutdown()

    def test_reduce_chunks_fold_order_is_chunk_order(self):
        # Strings make the fold order observable: + is concatenation.
        eng = Engine(workers=4, chunk_bytes=16)
        out = eng.reduce_chunks(10, 8, lambda sl: f"[{sl.start}:{sl.stop}]")
        assert out == "[0:2][2:4][4:6][6:8][8:10]"
        eng.shutdown()

    def test_reduce_chunks_rejects_empty(self):
        with pytest.raises(ValidationError):
            Engine().reduce_chunks(0, 8, lambda sl: 0)

    def test_cluster_sums_independent_of_engine_chunk_budget(self, rng):
        # The engine budget is a tuning knob; centroid sums are part of
        # the reproducibility contract and must not depend on it.
        X = rng.normal(size=(4000, 6))
        labels = rng.integers(0, 11, size=4000)
        w = rng.uniform(0.0, 2.0, 4000)
        ref = cluster_sums(X, labels, 11, weights=w)
        for chunk_bytes in (256, 4096, 10**9):
            for workers in (1, 4):
                with use_engine(workers=workers, chunk_bytes=chunk_bytes):
                    np.testing.assert_array_equal(
                        cluster_sums(X, labels, 11, weights=w), ref
                    )
