"""Dataset persistence: save/load :class:`~repro.data.dataset.Dataset`.

Datasets at paper scale (4.8M rows) take minutes to generate; ``repro
data`` saves one so that later runs (``repro mr``, ``repro serve``) load
it instead of generating it again. Format: a ``.npz``
bundle (points / labels / true centers) plus a sidecar ``.json`` with the
name and metadata — both human-inspectable, no pickle.

:func:`ensure_mmap_npy` supports the out-of-core MapReduce split sources
(:mod:`repro.data.splits`): given a saved dataset it produces a plain
``.npy`` file that :func:`numpy.load` can memory-map, extracting the
``X`` array from a ``.npz`` bundle once and caching the result next to it.
"""

from __future__ import annotations

import json
import os
import pathlib

import numpy as np

from repro.data.dataset import Dataset
from repro.exceptions import ValidationError
from repro.linalg import sparse as _sparse

__all__ = ["save_dataset", "load_dataset", "ensure_mmap_npy"]

#: Suffixes this module owns. Only these are ever stripped from a user
#: path — anything else (``thing.whatever``, ``gauss__l=0.5``) is part of
#: the dataset's *name*, not an extension. Stripping arbitrary suffixes
#: corrupted cache filenames containing dots: ``gauss__l=0.5_n=100000``
#: became ``gauss__l=0`` and distinct configs collided on one cache entry.
_KNOWN_SUFFIXES = (".npz", ".json")


def _strip_known_suffix(path: str | pathlib.Path) -> pathlib.Path:
    """Drop a trailing ``.npz``/``.json`` (ours); keep every other dot."""
    base = pathlib.Path(path)
    if base.suffix.lower() in _KNOWN_SUFFIXES:
        return base.with_suffix("")
    return base


def _with_suffix(base: pathlib.Path, suffix: str) -> pathlib.Path:
    """Append ``suffix`` to ``base`` without treating dots in the name."""
    return base.with_name(base.name + suffix)


def save_dataset(dataset: Dataset, path: str | pathlib.Path) -> pathlib.Path:
    """Write ``dataset`` to ``<path>.npz`` + ``<path>.json``; returns the npz path.

    A trailing ``.npz``/``.json`` on ``path`` is normalized away; any other
    dotted segment is preserved as part of the filename. Parent directories
    are created.

    A dataset whose ``X`` is a scipy CSR matrix keeps its points sparse
    on disk: ``X`` goes to a ``<path>.X.csr/`` directory (the
    ``data.npy``/``indices.npy``/``indptr.npy`` triple of
    :func:`repro.data.splits.save_csr_dir`, which the split sources
    memory-map) while labels / true centers / metadata stay in the
    ``.npz`` + ``.json`` pair.  The same dotted-safe suffix rules apply,
    so cache filenames with dots (``gauss__l=0.5``) stay intact.
    """
    base = _strip_known_suffix(path)
    base.parent.mkdir(parents=True, exist_ok=True)
    sparse_x = _sparse.is_sparse(dataset.X)
    arrays: dict[str, np.ndarray] = {}
    if sparse_x:
        from repro.data.splits import save_csr_dir

        save_csr_dir(dataset.X, _with_suffix(base, ".X.csr"))
    else:
        arrays["X"] = dataset.X
    if dataset.labels is not None:
        arrays["labels"] = dataset.labels
    if dataset.true_centers is not None:
        arrays["true_centers"] = dataset.true_centers
    npz_path = _with_suffix(base, ".npz")
    np.savez_compressed(npz_path, **arrays)
    sidecar = {
        "name": dataset.name,
        "metadata": dataset.metadata,
        "sparse_x": sparse_x,
    }
    _with_suffix(base, ".json").write_text(
        json.dumps(sidecar, indent=2, default=str), encoding="utf-8"
    )
    return npz_path


def load_dataset(path: str | pathlib.Path) -> Dataset:
    """Load a dataset previously written by :func:`save_dataset`.

    A sparse bundle (``<path>.X.csr/`` next to the ``.npz``) comes back
    with a memory-mapped CSR ``X`` — pages fault in as kernels touch
    them, so loading never materializes the dense rectangle.
    """
    base = _strip_known_suffix(path)
    npz_path = _with_suffix(base, ".npz")
    json_path = _with_suffix(base, ".json")
    if not npz_path.exists():
        raise ValidationError(f"no dataset at {npz_path}")
    with np.load(npz_path) as bundle:
        X = bundle["X"] if "X" in bundle else None
        labels = bundle["labels"] if "labels" in bundle else None
        true_centers = bundle["true_centers"] if "true_centers" in bundle else None
    if X is None:
        from repro.data.splits import is_csr_dir, load_csr_dir

        csr_dir = _with_suffix(base, ".X.csr")
        if not is_csr_dir(csr_dir):
            raise ValidationError(
                f"{npz_path} has no X member and no {csr_dir} CSR directory"
            )
        X = load_csr_dir(csr_dir)
    if json_path.exists():
        sidecar = json.loads(json_path.read_text(encoding="utf-8"))
        name = sidecar.get("name", base.name)
        metadata = sidecar.get("metadata", {})
    else:
        name, metadata = base.name, {}
    return Dataset(
        name=name, X=X, labels=labels, true_centers=true_centers, metadata=metadata
    )


def ensure_mmap_npy(path: str | pathlib.Path) -> pathlib.Path:
    """Resolve ``path`` to a plain ``.npy`` file that can be memory-mapped.

    Accepts:

    * a ``.npy`` file — returned as-is;
    * a ``.npz`` bundle written by :func:`save_dataset` (or any npz with an
      ``X`` member) — the ``X`` array is extracted once to a sibling
      ``<base>.X.npy`` cache file (refreshed when the npz is newer) and
      that path is returned;
    * a bare dataset base path — ``<path>.npy`` then ``<path>.npz`` are
      tried in that order.

    The extraction pass loads ``X`` into memory once; every later open is
    a pure ``mmap`` and never reads the file up front.
    """
    p = pathlib.Path(path)
    if p.suffix.lower() == ".npy":
        if not p.exists():
            raise ValidationError(f"no array file at {p}")
        return p
    if p.suffix.lower() == ".npz":
        npz = p
    else:
        bare_npy = _with_suffix(p, ".npy")
        if bare_npy.exists():
            return bare_npy
        npz = _with_suffix(p, ".npz")
    if not npz.exists():
        raise ValidationError(f"no dataset at {npz} (tried .npy and .npz)")
    cache = _with_suffix(npz.with_suffix(""), ".X.npy")
    if not cache.exists() or cache.stat().st_mtime < npz.stat().st_mtime:
        # Unique temp name (concurrent extractors must not share one file)
        # ending in .npy so np.save does not append a suffix; the atomic
        # rename means readers only ever see a complete cache file.
        tmp = _with_suffix(npz.with_suffix(""), f".X.tmp{os.getpid()}.npy")
        try:
            if not _stream_npz_member(npz, "X.npy", tmp):
                # Exotic header (fortran order / object dtype / unknown
                # version): fall back to one in-memory pass.
                with np.load(npz) as bundle:
                    np.save(tmp, bundle["X"])
            tmp.replace(cache)
        finally:
            tmp.unlink(missing_ok=True)
    return cache


def _stream_npz_member(
    npz: pathlib.Path,
    member: str,
    out_path: pathlib.Path,
    chunk_bytes: int = 32 * 1024 * 1024,
) -> bool:
    """Copy one ``.npy`` member of ``npz`` to ``out_path`` in bounded memory.

    Decompresses through the zip stream chunk by chunk into a writable
    memmap, so extracting an ``X`` larger than RAM never materializes it.
    Returns ``False`` when the member's layout can't be streamed (caller
    falls back to an in-memory pass); raises for a missing member or a
    truncated stream.
    """
    import zipfile

    from numpy.lib import format as npy_format

    with zipfile.ZipFile(npz) as zf:
        if member not in zf.namelist():
            raise ValidationError(
                f"{npz} has no {member!r} member; not a save_dataset() bundle"
            )
        with zf.open(member) as fh:
            version = npy_format.read_magic(fh)
            if version == (1, 0):
                shape, fortran, dtype = npy_format.read_array_header_1_0(fh)
            elif version == (2, 0):
                shape, fortran, dtype = npy_format.read_array_header_2_0(fh)
            else:
                return False
            if fortran or dtype.hasobject or len(shape) == 0:
                return False
            out = npy_format.open_memmap(
                out_path, mode="w+", dtype=dtype, shape=shape
            )
            try:
                flat = out.reshape(-1)
                total, pos = flat.shape[0], 0
                chunk_items = max(1, chunk_bytes // dtype.itemsize)
                while pos < total:
                    n_items = min(chunk_items, total - pos)
                    buf = fh.read(n_items * dtype.itemsize)
                    if len(buf) != n_items * dtype.itemsize:
                        raise ValidationError(
                            f"truncated {member!r} member in {npz}"
                        )
                    flat[pos : pos + n_items] = np.frombuffer(buf, dtype=dtype)
                    pos += n_items
                out.flush()
            finally:
                del out
    return True
