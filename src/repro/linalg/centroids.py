"""Centroid / cluster-aggregate kernels.

``centroid(Y) = (1/|Y|) * sum(Y)`` in the paper's notation (Section 3.1);
the weighted generalization is needed by Step 8 of ``k-means||`` where the
oversampled candidates carry integer weights, and by every reducer in the
MapReduce Lloyd job (which aggregates *partial* sums and counts).
"""

from __future__ import annotations

import numpy as np

from repro.linalg import sparse as _sparse
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


def cluster_sums(
    X: np.ndarray,
    labels: np.ndarray,
    k: int,
    *,
    weights: np.ndarray | None = None,
    chunk_bytes: int | None = None,
) -> np.ndarray:
    """Per-cluster (weighted) coordinate sums, shape ``(k, d)``.

    One flattened-index bincount per row block (``labels * d + dim`` maps
    every coordinate to a unique bin), which is the fastest pure-numpy
    scatter-add for this shape — a single C-loop over ``n * d`` entries
    instead of ``d`` passes over ``labels``.  Blocks run through the
    current :mod:`~repro.linalg.engine` and fold in chunk order over a
    *fixed* block size (see ``_SUMS_CHUNK_BYTES``), so the result is
    independent of both worker count and the engine's tunable budget;
    only an explicit ``chunk_bytes`` argument changes the fold
    boundaries.

    A scipy CSR ``X`` folds only its stored entries over the *same*
    fixed block boundaries — bit-identical to the dense fold on the
    same values (skipping exact ``+0.0`` additions cannot change an
    IEEE partial sum); see :func:`repro.linalg.sparse.sparse_cluster_sums`.

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
    dim_offsets = np.arange(d, dtype=np.int64)

    def work(sl: slice) -> np.ndarray:
        block = X[sl]
        vals = block if weights is None else block * weights[sl][:, None]
        flat = (labels[sl].astype(np.int64) * d)[:, None] + dim_offsets
        return np.bincount(
            flat.ravel(), weights=np.ascontiguousarray(vals, dtype=np.float64).ravel(),
            minlength=k * d,
        )

    # Scratch per row: the flat int64 index row + a float64 value row
    # (+ the weighted copy when weights are given). Each block also
    # yields a (k*d,) partial; reduce_chunks keeps only ~workers of
    # those alive at once.
    total = get_engine().reduce_chunks(
        n, 24 * d, work,
        chunk_bytes=_SUMS_CHUNK_BYTES if chunk_bytes is None else chunk_bytes,
    )
    return total.reshape(k, d)


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
