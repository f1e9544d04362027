"""CSR split sources: on-disk format, descriptors, and dispatch.

The sparse-path PR's data layer: a CSR matrix saved as a directory of
three ``.npy`` arrays plus a meta sidecar must round-trip losslessly,
serve row blocks lazily through mmap, hand out picklable descriptors,
and be picked up by ``as_split_source`` both as a live scipy matrix and
as a directory.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

scipy_sparse = pytest.importorskip("scipy.sparse")

from repro.data.splits import (
    CSR_MEMBERS,
    CsrSplitDescriptor,
    CsrSplitSource,
    as_split_source,
    is_csr_dir,
    load_csr_dir,
    save_csr_dir,
)
from repro.exceptions import ValidationError


def _random_csr(seed=0, n=60, d=9, density=0.3):
    rng = np.random.default_rng(seed)
    X = np.where(rng.random((n, d)) < density, rng.normal(size=(n, d)), 0.0)
    return X, scipy_sparse.csr_matrix(X)


class TestOnDiskFormat:
    def test_save_load_roundtrip(self, tmp_path):
        X, Xs = _random_csr()
        directory = tmp_path / "m.csr"
        save_csr_dir(Xs, directory)
        assert is_csr_dir(directory)
        assert sorted(p.name for p in directory.iterdir() if p.suffix == ".npy") == sorted(CSR_MEMBERS)
        loaded = load_csr_dir(directory)
        np.testing.assert_array_equal(loaded.toarray(), X)
        # Index arrays are widened to a fixed width on disk (scipy may
        # downcast them again at construction time — that's fine).
        assert np.load(directory / "indices.npy", mmap_mode="r").dtype == np.int64
        assert np.load(directory / "indptr.npy", mmap_mode="r").dtype == np.int64

    def test_save_canonicalizes_input(self, tmp_path):
        # COO with duplicate entries: saving must produce the canonical
        # CSR (sorted indices, duplicates summed).
        coo = scipy_sparse.coo_matrix(
            (np.array([1.0, 2.0, 3.0]), (np.array([0, 0, 1]), np.array([2, 2, 0]))),
            shape=(2, 4),
        )
        directory = tmp_path / "coo.csr"
        save_csr_dir(coo, directory)
        loaded = load_csr_dir(directory)
        np.testing.assert_array_equal(
            loaded.toarray(), [[0.0, 0.0, 3.0, 0.0], [3.0, 0.0, 0.0, 0.0]]
        )

    def test_non_csr_dir_rejected(self, tmp_path):
        assert not is_csr_dir(tmp_path)
        np.save(tmp_path / "data.npy", np.zeros(3))
        assert not is_csr_dir(tmp_path)  # missing indices/indptr


class TestCsrSplitSource:
    def test_in_memory_blocks(self):
        X, Xs = _random_csr(1)
        source = CsrSplitSource(Xs)
        assert source.shape == X.shape
        block = source.block(10, 25)
        np.testing.assert_array_equal(block.toarray(), X[10:25])

    def test_on_disk_blocks_match_in_memory(self, tmp_path):
        X, Xs = _random_csr(2)
        directory = tmp_path / "d.csr"
        save_csr_dir(Xs, directory)
        disk = CsrSplitSource(directory)
        assert disk.shape == X.shape
        for start, stop in [(0, 60), (13, 41), (59, 60)]:
            np.testing.assert_array_equal(
                disk.block(start, stop).toarray(), X[start:stop]
            )

    def test_block_nbytes_charges_stored_triple(self, tmp_path):
        _, Xs = _random_csr(3)
        directory = tmp_path / "n.csr"
        save_csr_dir(Xs, directory)
        source = CsrSplitSource(directory)
        start, stop = 5, 30
        block = source.block(start, stop)
        # Charged at the *stored* widths: float64 data + int64 indices
        # and indptr, regardless of scipy's in-memory index downcasts.
        expected = block.nnz * (8 + 8) + (stop - start + 1) * 8
        assert source.block_nbytes(start, stop) == expected
        # Far below the dense rectangle for sparse data.
        dense_rect = (stop - start) * Xs.shape[1] * 8
        assert source.block_nbytes(start, stop) < dense_rect

    def test_density_property(self):
        _, Xs = _random_csr(4, density=0.2)
        source = CsrSplitSource(Xs)
        assert source.nnz == Xs.nnz
        assert source.density == pytest.approx(
            Xs.nnz / (Xs.shape[0] * Xs.shape[1])
        )


class TestDescriptors:
    def test_descriptor_pickles_and_loads(self, tmp_path):
        X, Xs = _random_csr(5)
        directory = tmp_path / "p.csr"
        save_csr_dir(Xs, directory)
        desc = CsrSplitSource(directory).descriptor(7, 33)
        assert isinstance(desc, CsrSplitDescriptor)
        loaded = pickle.loads(pickle.dumps(desc)).load()
        np.testing.assert_array_equal(loaded.toarray(), X[7:33])

    def test_in_memory_descriptor_carries_rows(self):
        X, Xs = _random_csr(7)
        desc = CsrSplitSource(Xs).descriptor(3, 9)
        loaded = pickle.loads(pickle.dumps(desc)).load()
        np.testing.assert_array_equal(np.asarray(loaded.todense()), X[3:9])


class TestDispatch:
    def test_scipy_matrix_dispatches(self):
        _, Xs = _random_csr(8)
        assert isinstance(as_split_source(Xs), CsrSplitSource)
        # Non-CSR sparse formats are canonicalized, not rejected.
        assert isinstance(as_split_source(Xs.tocoo()), CsrSplitSource)

    def test_csr_directory_dispatches(self, tmp_path):
        _, Xs = _random_csr(9)
        directory = tmp_path / "auto.csr"
        save_csr_dir(Xs, directory)
        source = as_split_source(str(directory))
        assert isinstance(source, CsrSplitSource)
        assert source.shape == Xs.shape

    def test_empty_directory_still_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            as_split_source(str(tmp_path / "nothing"))


class TestSparseDatasetIO:
    """``save_dataset``/``load_dataset`` with a CSR X (satellite of the
    sparse-path PR): X lands in a ``.X.csr`` sibling directory, loads
    back mmap-backed, and the generators report density."""

    def test_sparse_dataset_roundtrip(self, tmp_path):
        from repro.data.dataset import Dataset
        from repro.data.io import load_dataset, save_dataset

        X, Xs = _random_csr(20)
        ds = Dataset(name="t", X=Xs)
        npz = save_dataset(ds, tmp_path / "sp.npz")
        assert is_csr_dir(tmp_path / "sp.X.csr")
        back = load_dataset(npz)
        assert scipy_sparse.issparse(back.X)
        np.testing.assert_array_equal(back.X.toarray(), X)

    def test_sparse_generators_report_density(self):
        from repro.data.kddcup import make_kddcup
        from repro.data.spambase import make_spambase

        spam = make_spambase(n=200, seed=0, sparse=True)
        assert scipy_sparse.issparse(spam.X)
        assert 0.0 < spam.metadata["density"] < 1.0
        assert spam.metadata["sparse"] is True

        kdd = make_kddcup(n=200, seed=0, sparse=True)
        assert scipy_sparse.issparse(kdd.X)
        assert 0.0 < kdd.metadata["density"] < 1.0

        dense = make_spambase(n=200, seed=0)
        assert isinstance(dense.X, np.ndarray)
        assert dense.metadata["sparse"] is False
        # Same floats either way.
        np.testing.assert_array_equal(spam.X.toarray(), dense.X)
