"""Sparse (CSR) siblings of the chunked dense kernels.

The paper's own evaluation data is naturally sparse (SPAM word
frequencies, KDD counter columns), yet a dense row block pays the full
``n * d`` rectangle in GEMM flops and scratch.  This module gives every
hot kernel in :mod:`repro.linalg` a CSR-aware sibling built on the same
expansion

    ||x - c||^2 = ||x||^2 - 2 <x, c> + ||c||^2

with a CSR·dense SpMM for the cross term, row norms folded over stored
entries only, and :func:`sparse_cluster_sums` scatter-adding only the
coordinates the data actually has.  The public kernels in
:mod:`repro.linalg.distances` / :mod:`repro.linalg.centroids` dispatch
here when handed a scipy CSR operand, so mappers, drivers, and the
serving path go sparse without touching their call sites.

Chunk scheduling still belongs to :class:`repro.linalg.engine.Engine`
— blocks run through :meth:`~repro.linalg.engine.Engine.run_slices`, so
serial/thread/process backends, the shared worker budget, and fault
retry apply unchanged.  The difference is how row ranges are *cut*:
:func:`nnz_chunk_slices` charges the budget by stored entries (nnz)
plus per-row scratch rather than ``rows * d``, so a skewed CSR (a few
dense rows among many empty ones) still bounds per-block scratch.
Boundaries are a deterministic function of ``(indptr, budgets)`` — the
same split is produced on every backend and worker count, which keeps
the chunk-ordered folds bit-identical across schedules.

Identity contract (pinned by ``tests/properties/test_sparse_identity``)
----------------------------------------------------------------------
* :func:`sparse_cluster_sums` is **bit-identical** to the dense
  :func:`~repro.linalg.centroids.cluster_sums` on the same values and
  labels: both keep the sums order rule -- within a fixed block, each
  value is added to its bin in row-major order starting from ``+0.0``,
  and blocks fold in chunk order.  The sparse fold merely skips exact
  ``+0.0`` terms (which cannot change an IEEE-754 partial sum), and it
  reuses the dense kernel's *fixed* chunk boundaries so the chunk-order
  fold groups additions identically.
* The distance kernels are **not** promised bitwise equal: scipy's
  CSR·dense SpMM accumulates each dot product over a row's stored
  entries in index order, while BLAS GEMM is free to use any blocking /
  pairwise order.  Both land within :func:`sparse_d2_slack` of the
  exact value — the same ``O(d * eps * scale^2)`` cancellation bound
  the accelerated Lloyd uses (:func:`repro.core.lloyd_fast.
  expansion_slack`).  Consequences, and what callers may rely on:

  - squared distances (and hence costs/potentials) agree with the
    densified reference within ``sparse_d2_slack`` per entry;
  - argmin labels agree wherever the dense runner-up margin exceeds
    ``2 * sparse_d2_slack``; a label may differ only at ties within
    that band, where both answers are distances indistinguishable at
    working precision.

scipy is an *optional* dependency: this module imports without it and
every entry point degrades to "not sparse" so the dense pipeline is
unaffected (``HAVE_SCIPY`` gates the tests).
"""

from __future__ import annotations

import numpy as np

from repro.linalg.engine import get_engine

try:  # scipy is optional: the dense pipeline must not require it.
    from scipy import sparse as _scipy_sparse

    HAVE_SCIPY = True
except ImportError:  # pragma: no cover - exercised on scipy-less installs
    _scipy_sparse = None
    HAVE_SCIPY = False

__all__ = [
    "HAVE_SCIPY",
    "is_sparse",
    "is_csr",
    "to_csr",
    "densify_rows",
    "csr_nbytes",
    "sparse_d2_slack",
    "sparse_row_norms_sq",
    "sparse_block_sq_dists",
    "nnz_chunk_slices",
    "sparse_min_sq_dists",
    "sparse_update_min_sq_dists",
    "sparse_update_min_sq_dists_argmin",
    "sparse_assign_labels",
    "sparse_cluster_sums",
    "one_hot",
]

#: Bytes charged per stored entry when cutting nnz-aware chunks: the
#: float64 value + the index column + the SpMM accumulator traffic.
NNZ_SCRATCH_BYTES = 24


def is_sparse(x) -> bool:
    """True when ``x`` is any scipy sparse container (matrix or array)."""
    return HAVE_SCIPY and _scipy_sparse.issparse(x)


def is_csr(x) -> bool:
    """True when ``x`` is a scipy CSR matrix/array."""
    return HAVE_SCIPY and isinstance(
        x, (_scipy_sparse.csr_matrix, _scipy_sparse.csr_array)
    )


def to_csr(x):
    """Coerce a scipy sparse container to canonical CSR.

    Canonical means sorted column indices and no duplicate entries —
    what every generator and file loader in the repo produces anyway.
    Canonicalizing here pins the stored-entry order, which is what makes
    the kernels' per-row folds deterministic (and
    :func:`sparse_cluster_sums` bit-identical to dense).
    """
    if not is_sparse(x):
        raise TypeError(f"expected a scipy sparse matrix, got {type(x).__name__}")
    csr = x.tocsr()
    if not csr.has_sorted_indices:
        csr = csr.copy()
        csr.sort_indices()
    csr.sum_duplicates()
    return csr


def one_hot(labels: np.ndarray, k: int):
    """The ``(k, n)`` CSC array of ones with column ``j``'s at ``labels[j]``.

    ``one_hot(labels, k) @ X`` adds each row of ``X`` into its label's
    output row, walking the rows in order; dense
    :func:`~repro.linalg.centroids.cluster_sums` folds a block with it
    (see there).
    """
    n = labels.shape[0]
    return _scipy_sparse.csc_array(
        (np.ones(n), labels.astype(np.int32), np.arange(n + 1, dtype=np.int32)),
        shape=(k, n),
    )


def densify_rows(x) -> np.ndarray:
    """Rows of ``x`` as a dense ndarray (a copy either way).

    The helper the samplers use when a sparse split emits candidate
    rows: centers stay dense end-to-end (broadcasts, reducers, the
    sequential recluster), so selected rows densify at the emit site.
    """
    if is_sparse(x):
        return np.asarray(x.todense())
    return np.array(x, copy=True)


def csr_nbytes(x) -> int:
    """True buffer bytes of a CSR matrix: data + indices + indptr."""
    return int(x.data.nbytes) + int(x.indices.nbytes) + int(x.indptr.nbytes)


def _working_dtype(X, C: np.ndarray) -> np.dtype:
    """Same policy as the dense kernels: matching f32/f64 kept, else f64."""
    if X.dtype == C.dtype and X.dtype in (np.dtype(np.float32), np.dtype(np.float64)):
        return X.dtype
    return np.dtype(np.float64)


def _as_working_sparse(X, C: np.ndarray):
    """CSR ``X`` and dense ``C`` in a common working dtype (policy above)."""
    dt = _working_dtype(X, C)
    if X.dtype != dt:
        X = X.astype(dt)
    if C.dtype != dt:
        C = np.ascontiguousarray(C, dtype=dt)
    return X, C


def sparse_d2_slack(x_norms_sq, c_norms_sq, d: int, dtype) -> float:
    """Round-off allowance of one expansion squared distance, either path.

    The same ``4 * eps * (d + 4) * scale`` cancellation bound as
    :func:`repro.core.lloyd_fast.expansion_slack` (restated here so the
    linalg layer does not import the core layer): it covers any
    summation order of the ``d``-term cross product, so it bounds both
    BLAS GEMM and CSR SpMM — and therefore their disagreement.  This is
    the documented tolerance contract between the sparse and dense
    distance kernels.
    """
    eps = float(np.finfo(dtype).eps)
    scale = float(np.max(x_norms_sq, initial=0.0)) + float(
        np.max(c_norms_sq, initial=0.0)
    )
    return 4.0 * eps * (d + 4.0) * scale


def sparse_row_norms_sq(X) -> np.ndarray:
    """``||x_i||^2`` over stored entries only, shape ``(n,)``.

    One sequential bincount over the squared stored values — the same
    deterministic left-to-right fold per row on every backend.  (Not
    promised bitwise equal to the dense ``einsum``, which may sum a
    row's ``d`` terms pairwise; both are within the slack contract.)
    """
    X = to_csr(X)
    n = X.shape[0]
    data = X.data.astype(np.float64, copy=False)
    counts = np.diff(X.indptr)
    rows = np.repeat(np.arange(n, dtype=np.int64), counts)
    return np.bincount(rows, weights=data * data, minlength=n)


def sparse_block_sq_dists(block, C, x_norms_sq, c_norms_sq) -> np.ndarray:
    """One clamped expansion block with a CSR·dense SpMM cross term.

    The sparse twin of :func:`repro.linalg.distances.block_sq_dists`:
    ``block`` is CSR, ``C`` dense, both already in a common working
    dtype.  Subsetting rows of ``block`` leaves each row's stored-entry
    order untouched, so per-element results are bitwise independent of
    how callers chunk the rows — the property the serving path's
    fallback rows rely on.
    """
    cross = block @ C.T
    d2 = x_norms_sq[:, None] - 2.0 * np.asarray(cross) + c_norms_sq[None, :]
    np.maximum(d2, 0.0, out=d2)
    return d2


def nnz_chunk_slices(
    indptr: np.ndarray, row_scratch_bytes: int, chunk_bytes: int
) -> list[slice]:
    """Deterministic row-range chunks charged by nnz, not ``rows * d``.

    Each chunk satisfies ``nnz(chunk) * NNZ_SCRATCH_BYTES +
    rows(chunk) * row_scratch_bytes <= chunk_bytes`` (always at least
    one row, so a single megadense row still forms its own chunk).  The
    boundaries depend only on ``indptr`` and the two budgets — not on
    workers or backend — keeping chunk-ordered folds deterministic.
    """
    n = int(len(indptr)) - 1
    if n <= 0:
        return []
    row_scratch_bytes = max(1, int(row_scratch_bytes))
    chunk_bytes = max(1, int(chunk_bytes))
    # Monotone cumulative charge: crossing row i costs its nnz plus one
    # row of scratch; a chunk is a maximal run whose charge fits.
    cost = np.asarray(indptr, dtype=np.int64) * NNZ_SCRATCH_BYTES + (
        np.arange(n + 1, dtype=np.int64) * row_scratch_bytes
    )
    slices: list[slice] = []
    start = 0
    while start < n:
        stop = int(np.searchsorted(cost, cost[start] + chunk_bytes, side="right")) - 1
        stop = max(stop, start + 1)
        stop = min(stop, n)
        slices.append(slice(start, stop))
        start = stop
    return slices


def _csr_slices(X, k: int, chunk_bytes: int | None) -> list[slice]:
    """Row chunks for a distance kernel over CSR ``X`` against ``k`` centers."""
    engine = get_engine()
    budget = engine.chunk_bytes if chunk_bytes is None else int(chunk_bytes)
    # Per row: the (k,) float64 distance row, same as the dense kernels.
    return nnz_chunk_slices(X.indptr, 8 * max(1, k), budget)


def _check_dims(X, C: np.ndarray) -> None:
    if X.shape[1] != C.shape[1]:
        raise ValueError(
            f"dimension mismatch: points have d={X.shape[1]}, "
            f"centers have d={C.shape[1]}"
        )


def sparse_min_sq_dists(
    X,
    C: np.ndarray,
    *,
    x_norms_sq: np.ndarray | None = None,
    chunk_bytes: int | None = None,
) -> np.ndarray:
    """CSR sibling of :func:`repro.linalg.distances.min_sq_dists`."""
    X = to_csr(X)
    C = np.atleast_2d(np.asarray(C))
    _check_dims(X, C)
    X, C = _as_working_sparse(X, C)
    n, k = X.shape[0], C.shape[0]
    norms = x_norms_sq if x_norms_sq is not None else sparse_row_norms_sq(X)
    c_norms_sq = np.einsum("ij,ij->i", C, C)
    out = np.empty(n, dtype=np.float64)

    def work(sl: slice) -> None:
        d2 = sparse_block_sq_dists(X[sl], C, norms[sl], c_norms_sq)
        out[sl] = d2.min(axis=1)

    get_engine().run_slices(_csr_slices(X, k, chunk_bytes), work)
    return out


def sparse_update_min_sq_dists(
    X,
    new_centers: np.ndarray,
    current: np.ndarray,
    *,
    x_norms_sq: np.ndarray | None = None,
    chunk_bytes: int | None = None,
) -> np.ndarray:
    """CSR sibling of :func:`repro.linalg.distances.update_min_sq_dists`."""
    new_centers = np.atleast_2d(np.asarray(new_centers))
    if new_centers.shape[0] == 0:
        return current
    X = to_csr(X)
    _check_dims(X, new_centers)
    if current.shape[0] != X.shape[0]:
        raise ValueError(
            f"current has length {current.shape[0]}, expected {X.shape[0]}"
        )
    X, new_centers = _as_working_sparse(X, new_centers)
    norms = x_norms_sq if x_norms_sq is not None else sparse_row_norms_sq(X)
    c_norms_sq = np.einsum("ij,ij->i", new_centers, new_centers)

    def work(sl: slice) -> None:
        d2 = sparse_block_sq_dists(X[sl], new_centers, norms[sl], c_norms_sq)
        np.minimum(current[sl], d2.min(axis=1), out=current[sl])

    get_engine().run_slices(
        _csr_slices(X, new_centers.shape[0], chunk_bytes), work
    )
    return current


def sparse_update_min_sq_dists_argmin(
    X,
    new_centers: np.ndarray,
    current: np.ndarray,
    nearest: np.ndarray,
    *,
    offset: int,
    x_norms_sq: np.ndarray | None = None,
    chunk_bytes: int | None = None,
    gap: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """CSR sibling of :func:`~repro.linalg.distances.update_min_sq_dists_argmin`."""
    from repro.linalg.distances import _merge_nearest, _tile_argmin, _tile_top2

    new_centers = np.atleast_2d(np.asarray(new_centers))
    if new_centers.shape[0] == 0:
        return current, nearest
    X = to_csr(X)
    _check_dims(X, new_centers)
    if current.shape[0] != X.shape[0] or nearest.shape[0] != X.shape[0]:
        raise ValueError("current/nearest must have one entry per point")
    X, new_centers = _as_working_sparse(X, new_centers)
    norms = x_norms_sq if x_norms_sq is not None else sparse_row_norms_sq(X)
    c_norms_sq = np.einsum("ij,ij->i", new_centers, new_centers)

    def work(sl: slice) -> None:
        d2 = sparse_block_sq_dists(X[sl], new_centers, norms[sl], c_norms_sq)
        if gap is None:
            idx, best_new, second = *_tile_argmin(d2), None
        else:
            idx, best_new, second = _tile_top2(d2)
        _merge_nearest(
            current[sl], nearest[sl], None if gap is None else gap[sl],
            idx, best_new, second, offset,
        )

    get_engine().run_slices(
        _csr_slices(X, new_centers.shape[0], chunk_bytes), work
    )
    return current, nearest


def sparse_assign_labels(
    X,
    C: np.ndarray,
    *,
    x_norms_sq: np.ndarray | None = None,
    chunk_bytes: int | None = None,
    return_sq_dists: bool = False,
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """CSR sibling of :func:`repro.linalg.distances.assign_labels`."""
    X = to_csr(X)
    C = np.atleast_2d(np.asarray(C))
    _check_dims(X, C)
    X, C = _as_working_sparse(X, C)
    n, k = X.shape[0], C.shape[0]
    norms = x_norms_sq if x_norms_sq is not None else sparse_row_norms_sq(X)
    c_norms_sq = np.einsum("ij,ij->i", C, C)
    labels = np.empty(n, dtype=np.int64)
    best = np.empty(n, dtype=np.float64) if return_sq_dists else None

    def work(sl: slice) -> None:
        d2 = sparse_block_sq_dists(X[sl], C, norms[sl], c_norms_sq)
        idx = d2.argmin(axis=1)
        labels[sl] = idx
        if best is not None:
            best[sl] = np.take_along_axis(d2, idx[:, None], axis=1).ravel()

    get_engine().run_slices(_csr_slices(X, k, chunk_bytes), work)
    if best is not None:
        return labels, best
    return labels


def sparse_cluster_sums(
    X,
    labels: np.ndarray,
    k: int,
    *,
    weights: np.ndarray | None = None,
    sums_chunk_bytes: int,
    chunk_bytes: int | None = None,
) -> np.ndarray:
    """Per-cluster coordinate sums folding only stored entries.

    Bit-identical to the dense :func:`~repro.linalg.centroids.
    cluster_sums`: it walks the *same* fixed row-block boundaries (the
    dense kernel's ``rows_per_chunk(24 * d, sums_chunk_bytes)`` — passed
    in as ``sums_chunk_bytes`` so this module does not import the dense
    one) and keeps its order rule: within a block each value is added to
    its bin in row-major (stored) order, starting from ``+0.0``.  One
    ``np.bincount`` per block makes exactly those per-bin additions (the
    dense kernel makes them with ``np.add.at`` over cache-sized
    sub-blocks); the sparse fold merely skips the dense fold's exact
    ``+0.0`` terms, which cannot change an IEEE partial sum.  The
    chunk-order ``reduce_slices`` fold then groups additions exactly as
    the dense kernel does.
    """
    X = to_csr(X)
    if labels.shape[0] != X.shape[0]:
        raise ValueError(f"labels length {labels.shape[0]} != n={X.shape[0]}")
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ValueError(f"labels outside [0, {k})")
    n, d = X.shape
    if n == 0:
        return np.zeros((k, d), dtype=np.float64)
    from repro.utils.chunking import chunk_slices, rows_per_chunk

    budget = sums_chunk_bytes if chunk_bytes is None else chunk_bytes
    slices = list(chunk_slices(n, rows_per_chunk(24 * d, budget)))
    indptr = X.indptr
    labels64 = labels.astype(np.int64, copy=False)

    def work(sl: slice) -> np.ndarray:
        lo, hi = int(indptr[sl.start]), int(indptr[sl.stop])
        counts = np.diff(indptr[sl.start : sl.stop + 1])
        entry_labels = np.repeat(labels64[sl], counts)
        flat = entry_labels * d + X.indices[lo:hi]
        vals = X.data[lo:hi].astype(np.float64, copy=False)
        if weights is not None:
            vals = vals * np.repeat(weights[sl], counts)
        return np.bincount(flat, weights=vals, minlength=k * d)

    total = get_engine().reduce_slices(slices, work)
    return total.reshape(k, d)
