"""Tests for repro.data.io."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.dataset import Dataset
from repro.data.gauss_mixture import make_gauss_mixture
from repro.data.io import ensure_mmap_npy, load_dataset, save_dataset
from repro.exceptions import ValidationError


class TestRoundTrip:
    def test_full_dataset(self, tmp_path):
        ds = make_gauss_mixture(seed=0, n=200, k=5)
        save_dataset(ds, tmp_path / "gm")
        loaded = load_dataset(tmp_path / "gm")
        assert loaded.name == ds.name
        np.testing.assert_array_equal(loaded.X, ds.X)
        np.testing.assert_array_equal(loaded.labels, ds.labels)
        np.testing.assert_array_equal(loaded.true_centers, ds.true_centers)
        assert loaded.metadata["k"] == 5

    def test_minimal_dataset(self, tmp_path):
        ds = Dataset(name="bare", X=np.ones((4, 2)))
        save_dataset(ds, tmp_path / "bare")
        loaded = load_dataset(tmp_path / "bare")
        assert loaded.labels is None
        assert loaded.true_centers is None

    def test_known_extension_normalized(self, tmp_path):
        ds = Dataset(name="x", X=np.ones((2, 2)))
        npz = save_dataset(ds, tmp_path / "thing.npz")
        assert npz == tmp_path / "thing.npz"
        assert load_dataset(tmp_path / "thing").n == 2
        assert load_dataset(tmp_path / "thing.npz").n == 2
        assert load_dataset(tmp_path / "thing.json").n == 2

    def test_unknown_extension_preserved(self, tmp_path):
        # A dot in the name is data, not an extension: 'thing.whatever'
        # must not be truncated to 'thing'.
        ds = Dataset(name="x", X=np.ones((2, 2)))
        npz = save_dataset(ds, tmp_path / "thing.whatever")
        assert npz == tmp_path / "thing.whatever.npz"
        assert load_dataset(tmp_path / "thing.whatever").n == 2

    def test_parent_dirs_created(self, tmp_path):
        ds = Dataset(name="x", X=np.ones((2, 2)))
        save_dataset(ds, tmp_path / "a" / "b" / "c")
        assert load_dataset(tmp_path / "a" / "b" / "c").n == 2

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="no dataset"):
            load_dataset(tmp_path / "nope")

    def test_survives_missing_sidecar(self, tmp_path):
        ds = Dataset(name="x", X=np.ones((2, 2)), metadata={"a": 1})
        save_dataset(ds, tmp_path / "x")
        (tmp_path / "x.json").unlink()
        loaded = load_dataset(tmp_path / "x")
        assert loaded.name == "x"
        assert loaded.metadata == {}


class TestCachePath:
    def test_float_params_round_trip(self, tmp_path):
        # Regression: float params put dots in a filename
        # (gauss__l=0.5_n=100000); with_suffix()-based stripping truncated
        # everything after the last dot, so the entry written at l=0.5
        # could not be found again under its own name.
        path = tmp_path / "gauss__l=0.5_n=100000"
        ds = Dataset(name="gauss", X=np.full((3, 2), 0.5))
        npz = save_dataset(ds, path)
        assert npz.name == "gauss__l=0.5_n=100000.npz"
        np.testing.assert_array_equal(load_dataset(path).X, ds.X)

    def test_dotted_cache_names_do_not_collide(self, tmp_path):
        # Regression: distinct float configs used to be truncated to the
        # same file (gauss__l=0) and silently overwrite each other.
        half = tmp_path / "gauss__l=0.5_n=100"
        quarter = tmp_path / "gauss__l=0.25_n=100"
        ds_half = Dataset(name="half", X=np.full((2, 2), 0.5))
        ds_quarter = Dataset(name="quarter", X=np.full((2, 2), 0.25))
        save_dataset(ds_half, half)
        save_dataset(ds_quarter, quarter)
        assert load_dataset(half).name == "half"
        assert load_dataset(quarter).name == "quarter"
        np.testing.assert_array_equal(load_dataset(half).X, ds_half.X)
        np.testing.assert_array_equal(load_dataset(quarter).X, ds_quarter.X)


class TestEnsureMmapNpy:
    def test_npy_passthrough(self, tmp_path):
        p = tmp_path / "x.npy"
        np.save(p, np.ones((4, 2)))
        assert ensure_mmap_npy(p) == p

    def test_missing_npy_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="no array file"):
            ensure_mmap_npy(tmp_path / "nope.npy")

    def test_npz_extracted_once(self, tmp_path):
        ds = Dataset(name="x", X=np.arange(12.0).reshape(6, 2))
        npz = save_dataset(ds, tmp_path / "bundle")
        extracted = ensure_mmap_npy(npz)
        assert extracted.suffix == ".npy"
        mmap = np.load(extracted, mmap_mode="r")
        np.testing.assert_array_equal(np.asarray(mmap), ds.X)
        # Second call reuses the cache file rather than re-extracting.
        first_mtime = extracted.stat().st_mtime_ns
        assert ensure_mmap_npy(npz) == extracted
        assert extracted.stat().st_mtime_ns == first_mtime

    def test_bare_base_path_resolved(self, tmp_path):
        ds = Dataset(name="x", X=np.ones((3, 2)))
        save_dataset(ds, tmp_path / "base")
        resolved = ensure_mmap_npy(tmp_path / "base")
        np.testing.assert_array_equal(np.load(resolved), ds.X)

    def test_dotted_npz_name_survives(self, tmp_path):
        ds = Dataset(name="x", X=np.ones((3, 2)))
        npz = save_dataset(ds, tmp_path / "gauss__l=0.5_n=100")
        resolved = ensure_mmap_npy(npz)
        assert resolved.name.startswith("gauss__l=0.5_n=100")
        np.testing.assert_array_equal(np.load(resolved), ds.X)

    def test_missing_dataset_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="no dataset"):
            ensure_mmap_npy(tmp_path / "absent")

    def test_npz_without_x_member_rejected(self, tmp_path):
        path = tmp_path / "odd.npz"
        np.savez_compressed(path, Y=np.ones((2, 2)))
        with pytest.raises(ValidationError, match="member"):
            ensure_mmap_npy(path)

    def test_streaming_extraction_chunked(self, tmp_path):
        # Force many small chunks through the zip stream and check the
        # bytes land intact (the out-of-core extraction path).
        from repro.data.io import _stream_npz_member

        X = np.arange(600.0).reshape(100, 6)
        npz = tmp_path / "big.npz"
        np.savez_compressed(npz, X=X)
        out = tmp_path / "big.X.npy"
        assert _stream_npz_member(npz, "X.npy", out, chunk_bytes=64)
        np.testing.assert_array_equal(np.load(out), X)
