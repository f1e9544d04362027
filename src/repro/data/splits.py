"""Row-partitioned input sources for the MapReduce runtime.

The runtime used to require the whole dataset as one in-memory array; a
:class:`SplitSource` decouples *what a split is* from *where its bytes
live* so the same jobs run over

* an in-memory array (:class:`ArraySplitSource` — the classic path),
* a memory-mapped ``.npy``/``.npz`` file on disk
  (:class:`MmapSplitSource`), in which case a map task only faults in the
  pages of its own split: datasets larger than RAM stream through the
  pipeline with the OS page cache as the working set, or
* a *directory* of 2-d ``.npy`` shards (:class:`ShardedSplitSource`),
  memory-mapped per shard and presented as one row-stacked dataset.

Both sources hand out *views* (array slices / memmap slices) — no split
is ever copied just to be scheduled — and both present identical shapes,
dtypes and bytes, so pipeline output is bit-identical between them (the
integration tests assert this).

For execution backends that cross a process boundary, a source can also
describe a split as a picklable :class:`SplitDescriptor` instead of an
array: a file-backed source ships only ``(path, start, stop)`` and the
worker process re-opens the memory map locally (so an out-of-core
dataset is never serialized), while an in-memory source falls back to
shipping the rows themselves.
"""

from __future__ import annotations

import abc
import json
import os
import pathlib
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ValidationError
from repro.linalg import sparse as _sparse

__all__ = [
    "SplitSource",
    "ArraySplitSource",
    "MmapSplitSource",
    "ShardedSplitSource",
    "ShardedRowReader",
    "CsrSplitSource",
    "SplitDescriptor",
    "RowsSplitDescriptor",
    "MmapSplitDescriptor",
    "ShardedSplitDescriptor",
    "CsrSplitDescriptor",
    "as_split_source",
    "save_csr_dir",
    "load_csr_dir",
    "is_csr_dir",
]


class SplitDescriptor(abc.ABC):
    """A picklable recipe for materializing one split's rows.

    The MapReduce runtime hands descriptors (not arrays) to the execution
    backend, so a task shipped to a worker process carries only what that
    split actually needs: a file-backed split travels as a path plus a
    row range and is re-opened as a memory map in the child, an in-memory
    split travels as its rows.  ``load()`` in the parent process returns
    the same view :meth:`SplitSource.block` would — thread and serial
    backends pay no copy.
    """

    @abc.abstractmethod
    def load(self) -> np.ndarray:
        """Materialize the split's rows (a view whenever possible)."""


@dataclass(frozen=True)
class RowsSplitDescriptor(SplitDescriptor):
    """Descriptor carrying the rows themselves (in-memory sources).

    Pickling this ships the block's bytes — correct everywhere, but for
    datasets that should not be copied per task, prefer a file-backed
    source whose descriptors ship only ``(path, start, stop)``.
    """

    rows: np.ndarray

    def load(self) -> np.ndarray:
        return self.rows


def _file_identity(path: str | os.PathLike) -> tuple[int, int, int, int]:
    """``(device, inode, size, mtime_ns)`` of a file.

    Changes when the file is deleted and saved again (a new inode),
    rewritten in place (a new size or mtime) or replaced by an atomic
    rename, so a cache keyed on it never serves a stale mapping.
    """
    st = os.stat(path)
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns


def _mmap_key(path: str) -> tuple:
    """What a cached map of ``path`` must match: ``(pid, file identity)``."""
    return os.getpid(), _file_identity(path)


def _drop_stale(cache: dict, key_of) -> None:
    """Drop the entries of ``cache`` whose key no longer matches its file.

    A deleted or rewritten file, or a map inherited over a fork, no
    longer matches; dropping the entry lets its map close once no split
    view holds it, so a process that maps many files over its life keeps
    only the live ones.
    """
    for path, entry in list(cache.items()):
        try:
            current = key_of(path)
        except OSError:  # deleted (or unreadable) since it was mapped
            current = None
        if entry[0] != current:
            cache.pop(path, None)  # another thread may have dropped it


#: Per-process cache of open memory maps: path -> ((pid, file identity),
#: mmap). The pid makes a forked child re-open its own map instead of
#: sharing the parent's file handle state; the identity re-opens a file
#: that was rewritten since it was mapped.  Each miss first drops the
#: entries that no longer match their file (:func:`_drop_stale`), and a
#: runtime drops its source's entries when it shuts down
#: (:meth:`SplitSource.drop_cached_maps`).  File-backed sources hold no
#: map of their own and read every row through this cache: a worker
#: process forked during a fit never unwinds the driver frames it
#: inherits, so a map held by a source in those frames would stay
#: mapped in the worker for its whole life, while an inherited cache
#: entry is dropped at the worker's first miss.
_MMAP_CACHE: dict[str, tuple[tuple, np.ndarray]] = {}


def _cached_mmap(path: str | os.PathLike) -> np.ndarray:
    resolved = os.path.abspath(path)
    key = _mmap_key(resolved)
    entry = _MMAP_CACHE.get(resolved)
    if entry is None or entry[0] != key:
        _drop_stale(_MMAP_CACHE, _mmap_key)
        entry = (key, np.load(resolved, mmap_mode="r"))
        _MMAP_CACHE[resolved] = entry
    return entry[1]


def _npy_header(path: str | os.PathLike) -> tuple[tuple[int, ...], np.dtype]:
    """``(shape, dtype)`` of a ``.npy`` file, read from its header alone."""
    from numpy.lib import format as npy_format

    with open(path, "rb") as fh:
        version = npy_format.read_magic(fh)
        if version == (1, 0):
            shape, _, dtype = npy_format.read_array_header_1_0(fh)
        else:
            shape, _, dtype = npy_format.read_array_header_2_0(fh)
    return tuple(int(n) for n in shape), dtype


@dataclass(frozen=True)
class MmapSplitDescriptor(SplitDescriptor):
    """Descriptor for rows ``[start, stop)`` of a ``.npy`` file on disk.

    Pickles as just the path and the range; ``load()`` memory-maps the
    file (once per process, cached) and slices it, so a worker process
    faults in only its own split's pages — out-of-core datasets stay
    out-of-core across the process boundary.  Sources give it an
    absolute ``path``, so it loads the same file from any working
    directory.
    """

    path: str
    start: int
    stop: int

    def load(self) -> np.ndarray:
        return _cached_mmap(self.path)[self.start : self.stop]


class SplitSource(abc.ABC):
    """A 2-d row-partitionable dataset the runtime can slice into splits."""

    @property
    @abc.abstractmethod
    def shape(self) -> tuple[int, int]:
        """``(n_rows, n_cols)`` of the full dataset."""

    @property
    @abc.abstractmethod
    def dtype(self) -> np.dtype:
        """Element dtype (drives the simulated scan-bytes accounting)."""

    @abc.abstractmethod
    def block(self, start: int, stop: int) -> np.ndarray:
        """Rows ``[start, stop)`` as a read-only-by-convention view."""

    @abc.abstractmethod
    def as_array(self) -> np.ndarray:
        """The full dataset as one array-like (a memmap for file sources).

        The driver's top-up draw gathers its rows from it, so a memmap
        here reads only those rows rather than materializing.
        """

    # ------------------------------------------------------------------
    def descriptor(self, start: int, stop: int) -> SplitDescriptor:
        """A picklable descriptor for rows ``[start, stop)``.

        The default ships the rows themselves; file-backed sources
        override this to ship only the path and range.
        """
        return RowsSplitDescriptor(self.block(start, stop))

    def block_nbytes(self, start: int, stop: int) -> int:
        """Bytes a map task scans for rows ``[start, stop)``."""
        return (stop - start) * self.shape[1] * self.dtype.itemsize

    def drop_cached_maps(self) -> None:
        """Forget this process's cached maps of the source's files.

        The runtime calls this when it shuts down.  A later descriptor
        load maps the file again; in-memory sources have nothing cached.
        """

    def _validate(self) -> None:
        shape = self.shape
        if len(shape) != 2 or shape[0] == 0:
            raise ValidationError(
                f"split source must be a non-empty 2-d dataset, got shape {shape}"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        n, d = self.shape
        return f"{type(self).__name__}(shape=({n}, {d}), dtype={self.dtype})"


class ArraySplitSource(SplitSource):
    """Splits over an array already resident in memory."""

    def __init__(self, X: np.ndarray):
        self._X = np.asarray(X)
        self._validate()

    @property
    def shape(self) -> tuple[int, int]:
        return self._X.shape  # type: ignore[return-value]

    @property
    def dtype(self) -> np.dtype:
        return self._X.dtype

    def block(self, start: int, stop: int) -> np.ndarray:
        return self._X[start:stop]

    def as_array(self) -> np.ndarray:
        return self._X


class MmapSplitSource(SplitSource):
    """Splits over a memory-mapped ``.npy``/``.npz`` file.

    ``.npz`` bundles (as written by :func:`repro.data.io.save_dataset`)
    are resolved through :func:`repro.data.io.ensure_mmap_npy`, which
    extracts the ``X`` member to a sibling ``.X.npy`` cache once; every
    subsequent open memory-maps that file without reading it.  Rows,
    shape and dtype are all read from the map the process's map cache
    serves (see :data:`_MMAP_CACHE`), so a file rewritten since the
    source was built is described as it is now, the way its rows and
    descriptors read it.
    """

    def __init__(self, path: str | os.PathLike):
        # Deferred import: repro.data.io imports Dataset; keep this module
        # importable from the mapreduce layer without that dependency.
        from repro.data.io import ensure_mmap_npy

        self.path = pathlib.Path(path)
        self.npy_path = ensure_mmap_npy(self.path)
        self._validate()

    @property
    def shape(self) -> tuple[int, int]:
        return self.as_array().shape  # type: ignore[return-value]

    @property
    def dtype(self) -> np.dtype:
        return self.as_array().dtype

    def block(self, start: int, stop: int) -> np.ndarray:
        return self.as_array()[start:stop]

    def as_array(self) -> np.ndarray:
        X = _cached_mmap(self.npy_path)
        if X.ndim != 2:
            raise ValidationError(
                f"{self.npy_path} holds a {X.ndim}-d array; "
                "split sources need 2-d row data"
            )
        return X

    def descriptor(self, start: int, stop: int) -> SplitDescriptor:
        return MmapSplitDescriptor(
            os.path.abspath(self.npy_path), int(start), int(stop)
        )

    def drop_cached_maps(self) -> None:
        _MMAP_CACHE.pop(os.path.abspath(self.npy_path), None)


@dataclass(frozen=True)
class ShardedSplitDescriptor(SplitDescriptor):
    """Descriptor for a split spanning several shard files.

    A tuple of per-shard :class:`MmapSplitDescriptor` pieces; pickles as
    paths plus ranges only.  ``load()`` concatenates the shard slices —
    the one place a copy is unavoidable, paid only by splits that
    actually straddle a shard boundary.
    """

    pieces: tuple[MmapSplitDescriptor, ...]

    def load(self) -> np.ndarray:
        if len(self.pieces) == 1:
            return self.pieces[0].load()
        return np.concatenate([piece.load() for piece in self.pieces], axis=0)


class ShardedRowReader:
    """Row gather over a :class:`ShardedSplitSource`.

    The driver's one read of the data, the top-up draw of at most
    ``k - 1`` rows (:func:`~repro.core.reclustering.apply_top_up`), goes
    through ``as_array()``.  NumPy has no multi-file view, and the
    concatenation would hold the whole dataset, so this reader offers
    ``shape`` and an integer-array row gather that reads each shard once
    for its own rows.  ``peak_section_rows`` records the largest gather:
    the tests pin that a fit reads no more rows than it draws.
    """

    def __init__(self, source: "ShardedSplitSource"):
        self._source = source
        #: Largest number of rows any single gather materialized.
        self.peak_section_rows = 0

    @property
    def shape(self) -> tuple[int, int]:
        return self._source.shape

    def __getitem__(self, index) -> np.ndarray:
        """Rows ``index`` (integers in ``[0, n)``), in the given order."""
        idx = np.asarray(index, dtype=np.int64)
        n, d = self.shape
        if idx.size and (idx.min() < 0 or idx.max() >= n):
            raise IndexError(f"row indices out of range for {n} rows")
        self.peak_section_rows = max(self.peak_section_rows, idx.shape[0])
        out = np.empty((idx.shape[0], d), dtype=self._source.dtype)
        offsets = self._source._offsets
        shard_of = np.searchsorted(offsets, idx, side="right") - 1
        for s in np.unique(shard_of):
            mask = shard_of == s
            out[mask] = self._source._shard(s)[idx[mask] - int(offsets[s])]
        return out


class ShardedSplitSource(SplitSource):
    """A directory of 2-d ``.npy`` shards, read as one row-stacked dataset.

    A dataset written as many shard files (the natural output of a
    distributed job, or of chunked ingestion) is served to the runtime
    as a single logical array.  Shards are memory-mapped and ordered by
    filename (sort order is the row order, so writers should zero-pad:
    ``shard-000.npy``, ``shard-001.npy``, ...); they must agree on
    column count and dtype but may have any row counts.

    Shapes and dtypes come from the shards' headers, and rows are read
    through the process's map cache (see :data:`_MMAP_CACHE`).  Splits
    that fall inside one shard are zero-copy memmap views; splits that
    straddle a boundary concatenate (copy) just their own rows.
    Descriptors ship only paths and ranges, so the process backend
    stays out-of-core shard by shard.  ``as_array`` returns a
    :class:`ShardedRowReader`, which reads only the rows the driver
    draws, so the whole pipeline stays out-of-core end to end.
    """

    def __init__(self, directory: str | os.PathLike, pattern: str = "*.npy"):
        self.directory = pathlib.Path(directory)
        if not self.directory.is_dir():
            raise ValidationError(f"{self.directory} is not a directory")
        self.paths = sorted(self.directory.glob(pattern))
        if not self.paths:
            raise ValidationError(
                f"no shards matching {pattern!r} in {self.directory}"
            )
        headers = [_npy_header(path) for path in self.paths]
        for path, (shape, _) in zip(self.paths, headers):
            if len(shape) != 2 or shape[0] == 0:
                raise ValidationError(
                    f"shard {path} has shape {shape}; every shard "
                    "must be a non-empty 2-d row array"
                )
        first_shape, self._dtype = headers[0]
        self._n_cols = first_shape[1]
        for path, (shape, dtype) in zip(self.paths, headers):
            if shape[1] != self._n_cols:
                raise ValidationError(
                    f"shard {path} has {shape[1]} columns, expected "
                    f"{self._n_cols} (from {self.paths[0]})"
                )
            if dtype != self._dtype:
                raise ValidationError(
                    f"shard {path} has dtype {dtype}, expected "
                    f"{self._dtype} (from {self.paths[0]})"
                )
        self._offsets = np.concatenate(
            [[0], np.cumsum([shape[0] for shape, _ in headers])]
        )
        self._reader: ShardedRowReader | None = None
        self._validate()

    @property
    def n_shards(self) -> int:
        return len(self.paths)

    @property
    def shape(self) -> tuple[int, int]:
        return (int(self._offsets[-1]), self._n_cols)

    @property
    def dtype(self) -> np.dtype:
        return self._dtype

    def _shard(self, i: int) -> np.ndarray:
        """Shard ``i``'s rows, memory-mapped through the process's cache."""
        return _cached_mmap(self.paths[i])

    def _pieces(self, start: int, stop: int) -> list[tuple[int, int, int]]:
        """``(shard index, local start, local stop)`` covering [start, stop).

        An empty range maps to one empty piece of shard 0, so ``block``
        and ``descriptor`` return a ``(0, d)`` slice like the other
        sources do, instead of concatenating nothing.
        """
        start, stop = int(start), int(stop)
        if start >= stop:
            return [(0, 0, 0)]
        pieces = []
        first = max(0, int(np.searchsorted(self._offsets, start, side="right")) - 1)
        for i in range(first, self.n_shards):
            lo = int(self._offsets[i])
            hi = int(self._offsets[i + 1])
            if lo >= stop:
                break
            pieces.append((i, max(start, lo) - lo, min(stop, hi) - lo))
        return pieces

    def block(self, start: int, stop: int) -> np.ndarray:
        pieces = self._pieces(start, stop)
        if len(pieces) == 1:
            i, lo, hi = pieces[0]
            return self._shard(i)[lo:hi]
        return np.concatenate(
            [self._shard(i)[lo:hi] for i, lo, hi in pieces], axis=0
        )

    def as_array(self) -> "ShardedRowReader":
        """A row reader over the shards; the concatenation is never
        built (see :class:`ShardedRowReader`)."""
        if self._reader is None:
            self._reader = ShardedRowReader(self)
        return self._reader

    def descriptor(self, start: int, stop: int) -> SplitDescriptor:
        pieces = tuple(
            MmapSplitDescriptor(os.path.abspath(self.paths[i]), lo, hi)
            for i, lo, hi in self._pieces(start, stop)
        )
        if len(pieces) == 1:
            return pieces[0]
        return ShardedSplitDescriptor(pieces)

    def drop_cached_maps(self) -> None:
        for path in self.paths:
            _MMAP_CACHE.pop(os.path.abspath(path), None)


# ----------------------------------------------------------------------
# Sparse (CSR) split sources.

#: Member files of an on-disk CSR dataset directory (the standard CSR
#: triple).  Plain ``.npy`` files so every member memory-maps directly
#: (and resolves through :func:`repro.data.io.ensure_mmap_npy`, the same
#: machinery the dense sources use).
CSR_MEMBERS = ("data.npy", "indices.npy", "indptr.npy")
#: Sidecar recording the logical shape (``indices`` need not reach the
#: last column, so ``n_cols`` cannot be inferred from the arrays).
CSR_META = "csr-meta.json"


def is_csr_dir(path: str | os.PathLike) -> bool:
    """True when ``path`` is a directory holding an on-disk CSR triple."""
    p = pathlib.Path(path)
    return p.is_dir() and all((p / member).exists() for member in CSR_MEMBERS)


def save_csr_dir(matrix, directory: str | os.PathLike) -> pathlib.Path:
    """Write a scipy sparse matrix as an on-disk CSR directory.

    Layout: ``data.npy`` / ``indices.npy`` / ``indptr.npy`` (indices and
    indptr widened to int64 so the format is size-independent) plus a
    ``csr-meta.json`` sidecar with the logical shape.  The result is
    what :func:`as_split_source` and ``python -m repro mr --splits-from``
    accept as a CSR dataset, and every member is a plain ``.npy`` the
    loaders memory-map — a worker faults in only its own split's pages.
    """
    csr = _sparse.to_csr(matrix)
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    np.save(directory / "data.npy", np.asarray(csr.data))
    np.save(directory / "indices.npy", np.asarray(csr.indices, dtype=np.int64))
    np.save(directory / "indptr.npy", np.asarray(csr.indptr, dtype=np.int64))
    (directory / CSR_META).write_text(
        json.dumps(
            {
                "format": "csr",
                "shape": [int(csr.shape[0]), int(csr.shape[1])],
                "nnz": int(csr.nnz),
            },
            indent=2,
        ),
        encoding="utf-8",
    )
    return directory


#: Per-process cache of open CSR directories: resolved dir ->
#: ((pid, member file identities), data, indices, indptr, shape), keyed
#: and pruned like :data:`_MMAP_CACHE`.
_CSR_CACHE: dict[str, tuple] = {}


def _csr_key(directory: str) -> tuple:
    """What a cached CSR directory must match: pid and member identities."""
    base = pathlib.Path(directory)
    members = [base / m for m in (*CSR_MEMBERS, CSR_META)]
    return (
        os.getpid(),
        tuple(_file_identity(m) if m.exists() else None for m in members),
    )


def _cached_csr_dir(directory: str) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[int, int]]:
    """Memory-map (once per process and version) a CSR directory's members."""
    resolved = os.path.abspath(directory)
    base = pathlib.Path(resolved)
    if not is_csr_dir(base):
        raise ValidationError(
            f"{base} is not a CSR split directory (need {CSR_MEMBERS})"
        )
    key = _csr_key(resolved)
    entry = _CSR_CACHE.get(resolved)
    if entry is None or entry[0] != key:
        _drop_stale(_CSR_CACHE, _csr_key)
        from repro.data.io import ensure_mmap_npy

        data = np.load(ensure_mmap_npy(base / "data.npy"), mmap_mode="r")
        indices = np.load(ensure_mmap_npy(base / "indices.npy"), mmap_mode="r")
        indptr = np.load(ensure_mmap_npy(base / "indptr.npy"), mmap_mode="r")
        meta_path = base / CSR_META
        if meta_path.exists():
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
            shape = (int(meta["shape"][0]), int(meta["shape"][1]))
        else:
            # Legacy triple without a sidecar: infer the tightest shape.
            n = int(indptr.shape[0]) - 1
            d = int(indices.max()) + 1 if indices.shape[0] else 1
            shape = (n, d)
        if indptr.shape[0] != shape[0] + 1:
            raise ValidationError(
                f"{base}: indptr has {indptr.shape[0]} entries, "
                f"expected n+1={shape[0] + 1}"
            )
        if data.shape[0] != indices.shape[0]:
            raise ValidationError(
                f"{base}: data has {data.shape[0]} entries but indices "
                f"has {indices.shape[0]}"
            )
        entry = (key, data, indices, indptr, shape)
        _CSR_CACHE[resolved] = entry
    return entry[1], entry[2], entry[3], entry[4]


def load_csr_dir(directory: str | os.PathLike):
    """The whole CSR directory as one memory-mapped CSR matrix."""
    _require_scipy()
    _, _, _, shape = _cached_csr_dir(os.fspath(directory))
    return _csr_rows(os.fspath(directory), 0, shape[0])


def _require_scipy() -> None:
    if not _sparse.HAVE_SCIPY:
        raise ValidationError(
            "scipy is required for CSR split sources but is not installed"
        )


def _csr_rows(directory: str, start: int, stop: int):
    """Rows ``[start, stop)`` of an on-disk CSR directory as a CSR block.

    The data/indices slices stay memmap views — scipy wraps them without
    copying, so a map task faults in only its own split's stored
    entries; just the small local ``indptr`` (one int64 per row) copies.
    """
    from scipy.sparse import csr_matrix

    data, indices, indptr, shape = _cached_csr_dir(directory)
    start, stop = int(start), int(stop)
    lo, hi = int(indptr[start]), int(indptr[stop])
    local_indptr = np.asarray(indptr[start : stop + 1], dtype=np.int64) - lo
    return csr_matrix(
        (data[lo:hi], indices[lo:hi], local_indptr),
        shape=(stop - start, shape[1]),
        copy=False,
    )


@dataclass(frozen=True)
class CsrSplitDescriptor(SplitDescriptor):
    """Descriptor for rows ``[start, stop)`` of an on-disk CSR directory.

    Pickles as the absolute directory path plus the row range;
    ``load()`` memory-maps the member triple (once per process, cached)
    and wraps the split's slice as a CSR block — out-of-core sparse
    datasets stay out-of-core across the process boundary.
    """

    directory: str
    start: int
    stop: int

    def load(self):
        _require_scipy()
        return _csr_rows(self.directory, self.start, self.stop)


class CsrSplitSource(SplitSource):
    """Splits over CSR data: a scipy matrix in memory or a saved directory.

    The sparse twin of :class:`ArraySplitSource` / :class:`MmapSplitSource`:
    blocks are CSR matrices (which every kernel in :mod:`repro.linalg`
    accepts via sparse dispatch), descriptors of an on-disk source ship
    only ``(directory, start, stop)``, and scan-byte accounting charges
    the split's *stored* bytes — ``nnz``-proportional, not ``rows * d``
    — so the simulated cluster's scan term reflects what a sparse scan
    actually reads.
    """

    def __init__(self, data):
        _require_scipy()
        if isinstance(data, (str, os.PathLike)):
            self.directory: pathlib.Path | None = pathlib.Path(data)
            self._X = None
            # Validate eagerly (shape, member agreement) like the other
            # file-backed sources do.
            _cached_csr_dir(os.fspath(self.directory))
        else:
            if not _sparse.is_sparse(data):
                raise ValidationError(
                    "CsrSplitSource needs a scipy sparse matrix or a CSR "
                    f"directory, got {type(data).__name__}"
                )
            self.directory = None
            self._X = _sparse.to_csr(data)
        self._validate()

    # -- geometry ------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        if self._X is not None:
            return (int(self._X.shape[0]), int(self._X.shape[1]))
        return _cached_csr_dir(os.fspath(self.directory))[3]

    @property
    def dtype(self) -> np.dtype:
        if self._X is not None:
            return self._X.dtype
        return _cached_csr_dir(os.fspath(self.directory))[0].dtype

    @property
    def nnz(self) -> int:
        """Stored entries of the whole dataset."""
        if self._X is not None:
            return int(self._X.nnz)
        return int(_cached_csr_dir(os.fspath(self.directory))[0].shape[0])

    @property
    def density(self) -> float:
        """``nnz / (n * d)`` — the fraction of the rectangle actually stored."""
        n, d = self.shape
        return self.nnz / float(n * d) if n and d else 0.0

    def _indptr(self) -> np.ndarray:
        if self._X is not None:
            return self._X.indptr
        return _cached_csr_dir(os.fspath(self.directory))[2]

    # -- data access ---------------------------------------------------
    def block(self, start: int, stop: int):
        if self._X is not None:
            return self._X[start:stop]
        return _csr_rows(os.fspath(self.directory), start, stop)

    def as_array(self):
        """The full dataset as one CSR matrix (mmap-backed on disk).

        The driver's top-up draw gathers its rows from it; on disk the
        matrix wraps the memory-mapped arrays (see :func:`_csr_rows`).
        """
        if self._X is not None:
            return self._X
        n, _ = self.shape
        return _csr_rows(os.fspath(self.directory), 0, n)

    def descriptor(self, start: int, stop: int) -> SplitDescriptor:
        if self._X is not None:
            return RowsSplitDescriptor(self._X[start:stop])
        return CsrSplitDescriptor(
            os.path.abspath(self.directory), int(start), int(stop)
        )

    def drop_cached_maps(self) -> None:
        if self.directory is not None:
            _CSR_CACHE.pop(os.path.abspath(self.directory), None)

    def block_nbytes(self, start: int, stop: int) -> int:
        """Bytes a sparse scan of rows ``[start, stop)`` actually reads:
        the range's stored values + column indices + its indptr slice."""
        indptr = self._indptr()
        nnz = int(indptr[stop]) - int(indptr[start])
        if self._X is not None:
            index_itemsize = self._X.indices.dtype.itemsize
            indptr_itemsize = indptr.dtype.itemsize
        else:
            data, indices, indptr_arr, _ = _cached_csr_dir(os.fspath(self.directory))
            index_itemsize = indices.dtype.itemsize
            indptr_itemsize = indptr_arr.dtype.itemsize
        return (
            nnz * (self.dtype.itemsize + index_itemsize)
            + (stop - start + 1) * indptr_itemsize
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        n, d = self.shape
        where = "memory" if self._X is not None else os.fspath(self.directory)
        return (
            f"CsrSplitSource(shape=({n}, {d}), dtype={self.dtype}, "
            f"nnz={self.nnz}, source={where!r})"
        )


def as_split_source(data) -> SplitSource:
    """Coerce ``data`` into a :class:`SplitSource`.

    Accepts an existing source (returned unchanged), a 2-d array, a
    scipy sparse matrix (canonicalized to CSR — see
    :class:`CsrSplitSource`), or a filesystem path
    (``str`` / ``PathLike``): a ``.npy``/``.npz`` file becomes a
    memory-mapped :class:`MmapSplitSource`, a *directory* becomes a
    :class:`CsrSplitSource` when it holds the on-disk CSR triple
    (``data.npy`` / ``indices.npy`` / ``indptr.npy``, as written by
    :func:`save_csr_dir`) and a :class:`ShardedSplitSource` over its
    ``*.npy`` shards otherwise.
    """
    if isinstance(data, SplitSource):
        return data
    if _sparse.is_sparse(data):
        return CsrSplitSource(data)
    if isinstance(data, (str, os.PathLike)):
        if pathlib.Path(data).is_dir():
            if is_csr_dir(data):
                return CsrSplitSource(data)
            return ShardedSplitSource(data)
        return MmapSplitSource(data)
    if isinstance(data, np.ndarray):
        return ArraySplitSource(data)
    raise ValidationError(
        "expected an ndarray, a scipy sparse matrix, a SplitSource, or a "
        "path to a .npy/.npz file or a directory of .npy shards / a CSR "
        "triple, got "
        f"{type(data).__name__}"
    )
