"""Tests for repro.data.splits."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.dataset import Dataset
from repro.data.io import save_dataset
from repro.data.splits import (
    ArraySplitSource,
    MmapSplitSource,
    ShardedSplitSource,
    SplitSource,
    as_split_source,
)
from repro.exceptions import ValidationError


@pytest.fixture
def X(rng) -> np.ndarray:
    return rng.normal(size=(37, 3))


class TestArraySplitSource:
    def test_shape_and_dtype(self, X):
        src = ArraySplitSource(X)
        assert src.shape == (37, 3)
        assert src.dtype == X.dtype

    def test_block_is_view(self, X):
        src = ArraySplitSource(X)
        block = src.block(5, 12)
        np.testing.assert_array_equal(block, X[5:12])
        assert block.base is X or block.base is src.as_array()

    def test_as_array(self, X):
        assert ArraySplitSource(X).as_array() is X

    def test_block_nbytes(self, X):
        assert ArraySplitSource(X).block_nbytes(3, 10) == 7 * 3 * 8

    def test_rejects_empty(self):
        with pytest.raises(ValidationError, match="non-empty 2-d"):
            ArraySplitSource(np.empty((0, 3)))

    def test_rejects_1d(self):
        with pytest.raises(ValidationError, match="non-empty 2-d"):
            ArraySplitSource(np.ones(5))


class TestMmapSplitSource:
    def test_from_npy(self, X, tmp_path):
        path = tmp_path / "x.npy"
        np.save(path, X)
        src = MmapSplitSource(path)
        assert src.shape == X.shape
        np.testing.assert_array_equal(src.block(4, 9), X[4:9])
        np.testing.assert_array_equal(np.asarray(src.as_array()), X)

    def test_from_npz_bundle(self, X, tmp_path):
        npz = save_dataset(Dataset(name="ds", X=X), tmp_path / "bundle")
        src = MmapSplitSource(npz)
        np.testing.assert_array_equal(src.block(0, 10), X[:10])

    def test_blocks_match_array_source(self, X, tmp_path):
        path = tmp_path / "x.npy"
        np.save(path, X)
        mem, mm = ArraySplitSource(X), MmapSplitSource(path)
        assert mem.shape == mm.shape
        assert mem.dtype == mm.dtype
        for lo, hi in [(0, 5), (5, 20), (20, 37)]:
            np.testing.assert_array_equal(mem.block(lo, hi), mm.block(lo, hi))
            assert mem.block_nbytes(lo, hi) == mm.block_nbytes(lo, hi)

    def test_rejects_1d_file(self, tmp_path):
        path = tmp_path / "flat.npy"
        np.save(path, np.arange(10.0))
        with pytest.raises(ValidationError, match="2-d"):
            MmapSplitSource(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError):
            MmapSplitSource(tmp_path / "absent.npy")


class TestShardedSplitSource:
    @pytest.fixture
    def shard_dir(self, X, tmp_path):
        d = tmp_path / "shards"
        d.mkdir()
        # Uneven shard sizes on purpose: 37 rows as 10 + 20 + 7.
        for i, (lo, hi) in enumerate([(0, 10), (10, 30), (30, 37)]):
            np.save(d / f"shard-{i:03d}.npy", X[lo:hi])
        return d

    def test_presents_one_dataset(self, X, shard_dir):
        src = ShardedSplitSource(shard_dir)
        assert src.n_shards == 3
        assert src.shape == X.shape
        assert src.dtype == X.dtype
        np.testing.assert_array_equal(src.as_array()[np.arange(X.shape[0])], X)

    def test_blocks_match_monolithic_source(self, X, shard_dir):
        src = ShardedSplitSource(shard_dir)
        mem = ArraySplitSource(X)
        # Within-shard, boundary-straddling, and all-shards ranges.
        for lo, hi in [(0, 5), (3, 10), (8, 25), (5, 37), (0, 37), (12, 13)]:
            np.testing.assert_array_equal(src.block(lo, hi), mem.block(lo, hi))
            assert src.block_nbytes(lo, hi) == mem.block_nbytes(lo, hi)

    def test_within_shard_block_is_a_view(self, X, shard_dir):
        src = ShardedSplitSource(shard_dir)
        block = src.block(11, 25)  # entirely inside shard 1
        assert block.base is not None  # memmap slice, no copy

    def test_empty_ranges_behave_like_other_sources(self, X, shard_dir):
        src = ShardedSplitSource(shard_dir)
        # Including ranges starting exactly on a shard boundary.
        for lo, hi in [(0, 0), (10, 10), (30, 30), (37, 37), (12, 12)]:
            block = src.block(lo, hi)
            assert block.shape == (0, X.shape[1])
            loaded = src.descriptor(lo, hi).load()
            assert loaded.shape == (0, X.shape[1])

    def test_descriptors_ship_paths_not_rows(self, X, shard_dir):
        import pickle

        from repro.data.splits import MmapSplitDescriptor, ShardedSplitDescriptor

        src = ShardedSplitSource(shard_dir)
        inside = src.descriptor(12, 28)
        assert isinstance(inside, MmapSplitDescriptor)
        straddling = src.descriptor(5, 35)  # covers all three shards
        assert isinstance(straddling, ShardedSplitDescriptor)
        assert len(straddling.pieces) == 3
        assert len(pickle.dumps(straddling)) < 1000
        clone = pickle.loads(pickle.dumps(straddling))
        np.testing.assert_array_equal(clone.load(), X[5:35])

    def test_runs_the_mr_pipeline_identically(self, X, shard_dir):
        from repro.mapreduce.kmeans_mr import mr_scalable_kmeans

        a = mr_scalable_kmeans(X, 3, l=6.0, r=2, n_splits=4, seed=9,
                               lloyd_max_iter=2)
        b = mr_scalable_kmeans(ShardedSplitSource(shard_dir), 3, l=6.0, r=2,
                               n_splits=4, seed=9, lloyd_max_iter=2)
        assert a.centers.tobytes() == b.centers.tobytes()
        assert a.final_cost == b.final_cost
        assert a.seed_cost == b.seed_cost

    def test_shard_order_is_filename_order(self, X, tmp_path):
        d = tmp_path / "named"
        d.mkdir()
        np.save(d / "b.npy", X[20:])
        np.save(d / "a.npy", X[:20])
        src = ShardedSplitSource(d)
        np.testing.assert_array_equal(src.as_array()[np.arange(X.shape[0])], X)

    def test_rejects_empty_directory(self, tmp_path):
        d = tmp_path / "empty"
        d.mkdir()
        with pytest.raises(ValidationError, match="no shards"):
            ShardedSplitSource(d)

    def test_rejects_mismatched_columns(self, X, tmp_path):
        d = tmp_path / "bad"
        d.mkdir()
        np.save(d / "a.npy", X)
        np.save(d / "b.npy", np.ones((4, X.shape[1] + 1)))
        with pytest.raises(ValidationError, match="columns"):
            ShardedSplitSource(d)

    def test_rejects_mismatched_dtype(self, X, tmp_path):
        d = tmp_path / "bad"
        d.mkdir()
        np.save(d / "a.npy", X)
        np.save(d / "b.npy", X.astype(np.float32))
        with pytest.raises(ValidationError, match="dtype"):
            ShardedSplitSource(d)

    def test_rejects_1d_shard(self, X, tmp_path):
        d = tmp_path / "bad"
        d.mkdir()
        np.save(d / "a.npy", np.arange(8.0))
        with pytest.raises(ValidationError, match="2-d"):
            ShardedSplitSource(d)


class TestAsSplitSource:
    def test_passthrough(self, X):
        src = ArraySplitSource(X)
        assert as_split_source(src) is src

    def test_from_array(self, X):
        assert isinstance(as_split_source(X), ArraySplitSource)

    def test_from_path(self, X, tmp_path):
        path = tmp_path / "x.npy"
        np.save(path, X)
        src = as_split_source(str(path))
        assert isinstance(src, MmapSplitSource)
        assert isinstance(as_split_source(path), MmapSplitSource)

    def test_from_directory(self, X, tmp_path):
        d = tmp_path / "shards"
        d.mkdir()
        np.save(d / "only.npy", X)
        src = as_split_source(str(d))
        assert isinstance(src, ShardedSplitSource)
        assert isinstance(as_split_source(d), ShardedSplitSource)

    def test_rejects_other(self):
        with pytest.raises(ValidationError, match="expected"):
            as_split_source(42)

    def test_url_is_a_missing_path_and_opens_no_connection(self, monkeypatch):
        import socket

        def refuse(*args, **kwargs):
            raise AssertionError("as_split_source opened a connection")

        monkeypatch.setattr(socket, "create_connection", refuse)
        monkeypatch.setattr(socket.socket, "connect", refuse)
        with pytest.raises(ValidationError, match="^no array file at "):
            as_split_source("http://127.0.0.1:9/x.npy")

    def test_is_split_source(self, X):
        assert isinstance(as_split_source(X), SplitSource)


class TestSplitDescriptors:
    """Picklable split recipes for process-backend map tasks."""

    def test_array_descriptor_is_view_in_process(self, X):
        from repro.data.splits import RowsSplitDescriptor

        src = ArraySplitSource(X)
        desc = src.descriptor(5, 12)
        assert isinstance(desc, RowsSplitDescriptor)
        block = desc.load()
        np.testing.assert_array_equal(block, X[5:12])
        assert block.base is X or block.base is src.as_array()  # no copy

    def test_array_descriptor_round_trips_exactly(self, X):
        import pickle

        desc = ArraySplitSource(X).descriptor(3, 30)
        clone = pickle.loads(pickle.dumps(desc))
        np.testing.assert_array_equal(clone.load(), X[3:30])
        assert clone.load().dtype == X.dtype

    def test_mmap_descriptor_carries_only_path_and_range(
        self, X, tmp_path, monkeypatch
    ):
        import os
        import pickle

        from repro.data.splits import MmapSplitDescriptor

        path = tmp_path / "x.npy"
        np.save(path, X)
        desc = MmapSplitSource(path).descriptor(4, 20)
        assert isinstance(desc, MmapSplitDescriptor)
        assert (desc.start, desc.stop) == (4, 20)
        clone = pickle.loads(pickle.dumps(desc))
        np.testing.assert_array_equal(clone.load(), X[4:20])
        # A source opened by a relative path ships an absolute one, which
        # still loads from another working directory.
        monkeypatch.chdir(tmp_path)
        blob = pickle.dumps(MmapSplitSource("x.npy").descriptor(4, 20))
        monkeypatch.chdir(tmp_path.parent)
        clone = pickle.loads(blob)
        assert clone.path == str(path)
        np.testing.assert_array_equal(clone.load(), X[4:20])

    def test_mmap_descriptor_caches_per_process(self, X, tmp_path):
        path = tmp_path / "x.npy"
        np.save(path, X)
        src = MmapSplitSource(path)
        a = src.descriptor(0, 10).load()
        b = src.descriptor(10, 20).load()
        # Same process, same file: one cached mmap backs both loads.
        assert a.base is b.base

    def test_descriptor_bytes_match_block_bytes(self, X, tmp_path):
        path = tmp_path / "x.npy"
        np.save(path, X)
        for src in (ArraySplitSource(X), MmapSplitSource(path)):
            for lo, hi in [(0, 7), (7, 25), (25, 37)]:
                np.testing.assert_array_equal(
                    np.asarray(src.descriptor(lo, hi).load()),
                    np.asarray(src.block(lo, hi)),
                )


class TestShardedRowReader:
    """The driver's top-up draw reads its rows, never the concatenation."""

    @pytest.fixture
    def shard_dir(self, X, tmp_path):
        d = tmp_path / "reader-shards"
        d.mkdir()
        for i, (lo, hi) in enumerate([(0, 10), (10, 30), (30, 37)]):
            np.save(d / f"shard-{i:03d}.npy", X[lo:hi])
        return d

    def test_row_and_fancy_indexing(self, X, shard_dir):
        reader = ShardedSplitSource(shard_dir).as_array()
        assert reader.shape == X.shape
        idx = np.array([36, 0, 12, 12, 29, 5])
        np.testing.assert_array_equal(reader[idx], X[idx])
        assert reader.peak_section_rows == idx.shape[0]
        for bad in ([99], [-1]):
            with pytest.raises(IndexError):
                reader[np.array(bad)]

    def test_top_up_and_seed_cost_stream(self, X, shard_dir):
        """The driver's one read of as_array(), the top-up draw, gathers
        only the rows it draws."""
        from repro.core.reclustering import TopUpPolicy, apply_top_up

        reader = ShardedSplitSource(shard_dir).as_array()
        rng = np.random.default_rng(0)
        centers = apply_top_up(X[:2].copy(), reader, 5, TopUpPolicy.PAD, rng)
        assert centers.shape == (5, X.shape[1])
        assert reader.peak_section_rows < X.shape[0]
