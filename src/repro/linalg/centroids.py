"""Centroid / cluster-aggregate kernels.

``centroid(Y) = (1/|Y|) * sum(Y)`` in the paper's notation (Section 3.1);
the weighted generalization is needed by Step 8 of ``k-means||`` where the
oversampled candidates carry integer weights, and by every reducer in the
MapReduce Lloyd job (which aggregates *partial* sums and counts).
"""

from __future__ import annotations

import numpy as np

from repro.linalg import sparse as _sparse
from repro.linalg.distances import _scratch
from repro.linalg.engine import get_engine
from repro.utils.chunking import DEFAULT_CHUNK_BYTES

__all__ = ["cluster_sums", "cluster_sizes", "weighted_centroids"]

#: Fixed block budget for the cluster_sums fold. Deliberately NOT the
#: engine's tunable budget: the fold order (and therefore the float
#: rounding of the centroids) depends on the block boundaries, and a
#: reproduction harness must produce the same centroids whatever
#: chunk_bytes an Engine was built with. Worker count stays free —
#: blocks fold in chunk order either way.
_SUMS_CHUNK_BYTES = DEFAULT_CHUNK_BYTES
#: Int64 index bytes per sub-block of a block: the index buffer (and the
#: float64 values beside it, when they are copied) stays in a core's L2
#: cache, and is kept between calls (see ``repro.linalg.distances._scratch``).
_SUMS_SUB_BYTES = 1 << 20
#: Fewest columns for which :func:`cluster_sums` takes the one-hot
#: product route: at d = 1 the product's fixed cost per row (its index
#: arrays) outweighs the one-value fold (sweep in the README,
#: "Performance" §11).
_ONE_HOT_MIN_D = 2


def cluster_sums(
    X: np.ndarray,
    labels: np.ndarray,
    k: int,
    *,
    weights: np.ndarray | None = None,
    chunk_bytes: int | None = None,
) -> np.ndarray:
    """Per-cluster (weighted) coordinate sums, shape ``(k, d)``.

    The order rule: each coordinate maps to its own bin
    (``labels * d + dim``); within a row block every value is added to
    its bin in row-major order, starting from ``+0.0``; and the blocks'
    partials fold in chunk order.  Those are the per-bin additions one
    flattened-index ``np.bincount`` per block makes.  Blocks run through
    the current :mod:`~repro.linalg.engine` over a *fixed* block size
    (see ``_SUMS_CHUNK_BYTES``), so the result is independent of both
    worker count and the engine's tunable budget; only an explicit
    ``chunk_bytes`` argument changes the boundaries.

    A block is added by one of two routes with the same bits:

    * the one-hot product (when scipy imports and ``d`` is at least
      ``_ONE_HOT_MIN_D``): the block's ``(k, rows)`` one-hot matrix, in
      CSC form (column ``j`` holds a one at row ``labels[j]``), times the
      block.  scipy's CSC product starts from ``+0.0`` and walks the
      columns in order, adding ``1.0 * x`` of row ``j`` into output row
      ``labels[j]``: the order rule, with no sort (``1.0 * x`` is ``x``,
      also under a fused multiply-add).  Weighted values are multiplied
      out first, as the fold does, so the product's bits never depend on
      how scipy was compiled;
    * the fold: the block in sub-blocks of about 1 MiB of indices
      (``_SUMS_SUB_BYTES``) with ``np.add.at``, which continues from the
      block's accumulator, so a block needs one kept, cache-sized index
      buffer instead of a block-sized index array.  (``np.add.at`` runs a
      fast indexed loop from NumPy 1.25; older NumPy gives the same bits,
      more slowly.)

    A scipy CSR ``X`` keeps the same order rule over the *same* fixed
    block boundaries, folding only its stored entries -- bit-identical to
    the dense fold on the same values (skipping exact ``+0.0`` additions
    cannot change an IEEE partial sum); see
    :func:`repro.linalg.sparse.sparse_cluster_sums`.

    Unit weights (what an unweighted fit passes) skip the weighted copy
    of each block: ``x * 1.0`` is ``x``, so the sums are unchanged.
    """
    if weights is not None and not np.any(weights != 1.0):
        weights = None
    if _sparse.is_sparse(X):
        return _sparse.sparse_cluster_sums(
            X, labels, k, weights=weights,
            sums_chunk_bytes=_SUMS_CHUNK_BYTES, chunk_bytes=chunk_bytes,
        )
    if labels.shape[0] != X.shape[0]:
        raise ValueError(f"labels length {labels.shape[0]} != n={X.shape[0]}")
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ValueError(f"labels outside [0, {k})")
    n, d = X.shape
    if n == 0:
        return np.zeros((k, d), dtype=np.float64)
    # Float64 rows of a C-contiguous X are added as they are; anything
    # else is first cast (or weighted) into a kept float64 buffer:
    # np.add.at's fast loop runs only without a cast, and the product
    # would cast into a fresh array of its own.
    copy = weights is not None or X.dtype != np.float64 or not X.flags.c_contiguous
    if _sparse.HAVE_SCIPY and d >= _ONE_HOT_MIN_D:
        work = _one_hot_blocks(X, labels, k, weights, copy)
    else:
        work = _fold_blocks(X, labels, k, weights, copy)
    # The per-row figure fixes the block boundaries, and with them the
    # fold's rounding; it was the scratch of a block-sized index array
    # and stays so that no boundary moves.  Each block yields a (k*d,)
    # partial; reduce_chunks keeps only ~workers of those alive at once.
    total = get_engine().reduce_chunks(
        n, 24 * d, work,
        chunk_bytes=_SUMS_CHUNK_BYTES if chunk_bytes is None else chunk_bytes,
    )
    return total.reshape(k, d)


def _float64_rows(X, weights, lo, hi, out):
    """Rows ``[lo, hi)`` of ``X`` (times their weights) as float64, in ``out``."""
    if weights is None:
        out[...] = X[lo:hi]
    else:
        # The product's dtype is the operands', as in ``X * w``; only
        # its store widens.
        np.multiply(X[lo:hi], weights[lo:hi, None], out=out)
    return out


def _one_hot_blocks(X, labels, k, weights, copy):
    """The one-hot product route of :func:`cluster_sums`, one block per call."""
    d = X.shape[1]

    def work(sl: slice) -> np.ndarray:
        one_hot = _sparse.one_hot(labels[sl], k)
        if not copy:
            return (one_hot @ X[sl]).reshape(-1)
        rows = sl.stop - sl.start
        with _scratch(8 * rows * d) as raw:
            vals = _float64_rows(
                X, weights, sl.start, sl.stop, raw.view(np.float64).reshape(rows, d)
            )
            return (one_hot @ vals).reshape(-1)

    return work


def _fold_blocks(X, labels, k, weights, copy):
    """The ``np.add.at`` route of :func:`cluster_sums`, one block per call."""
    d = X.shape[1]
    labels = labels.astype(np.int64, copy=False)
    dim_offsets = np.arange(d, dtype=np.int64)
    step = max(1, _SUMS_SUB_BYTES // (8 * max(1, d)))

    def work(sl: slice) -> np.ndarray:
        part = np.zeros(k * d)
        rows = min(step, sl.stop - sl.start)
        size = rows * d
        with _scratch(8 * (rows + size + (size if copy else 0))) as raw:
            words = raw.view(np.int64)
            lab_buf, flat_buf = words[:rows], words[rows : rows + size]
            vals_buf = words[rows + size :].view(np.float64)
            for lo in range(sl.start, sl.stop, step):
                hi = min(lo + step, sl.stop)
                lab = np.multiply(labels[lo:hi], d, out=lab_buf[: hi - lo])
                flat = flat_buf[: (hi - lo) * d].reshape(hi - lo, d)
                np.add(lab[:, None], dim_offsets, out=flat)
                if not copy:
                    vals = X[lo:hi]
                else:
                    vals = _float64_rows(
                        X, weights, lo, hi, vals_buf[: (hi - lo) * d].reshape(hi - lo, d)
                    )
                np.add.at(part, flat.reshape(-1), vals.reshape(-1))
        return part

    return work


def cluster_sizes(
    labels: np.ndarray,
    k: int,
    *,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Per-cluster total weight (counts when unweighted), shape ``(k,)``."""
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ValueError(f"labels outside [0, {k})")
    return np.bincount(labels, weights=weights, minlength=k).astype(np.float64)


def weighted_centroids(
    X: np.ndarray,
    labels: np.ndarray,
    k: int,
    *,
    weights: np.ndarray | None = None,
    empty: str = "nan",
) -> tuple[np.ndarray, np.ndarray]:
    """Weighted centroid of each cluster plus the per-cluster mass.

    Parameters
    ----------
    empty:
        What to write for clusters with zero mass: ``"nan"`` (caller must
        repair — the policy Lloyd uses so empty clusters are *visible*) or
        ``"zero"`` (useful in reducers that merge partials later).

    Returns
    -------
    (centers, mass):
        ``centers`` has shape ``(k, d)``; ``mass`` shape ``(k,)``.
    """
    if empty not in ("nan", "zero"):
        raise ValueError(f"empty must be 'nan' or 'zero', got {empty!r}")
    sums = cluster_sums(X, labels, k, weights=weights)
    mass = cluster_sizes(labels, k, weights=weights)
    centers = np.full_like(sums, np.nan if empty == "nan" else 0.0)
    nonzero = mass > 0
    centers[nonzero] = sums[nonzero] / mass[nonzero, None]
    return centers, mass
