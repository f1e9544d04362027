"""Squared Euclidean distance kernels.

All distances in the paper are squared Euclidean (the k-means potential
``phi`` sums ``d^2``). We use the expansion

    ||x - c||^2 = ||x||^2 - 2 <x, c> + ||c||^2

so the inner loop is a single GEMM, and we clamp tiny negative values that
round-off can produce (they would otherwise poison ``sqrt`` and the D^2
sampling distribution).

The expansion is folded in place: the GEMM multiplies by ``-2 C`` straight
into the output buffer, then ``||x||^2`` and ``||c||^2`` are added to it
in that order.  Scaling by -2 is exact (a power of two, barring overflow
and subnormals), and ``a + (-b)`` is ``a - b`` in IEEE arithmetic, so
every value has the bits of ``(||x||^2 - 2 (X C^T)) + ||c||^2`` evaluated
term by term, without that expression's three full-size temporaries.

Memory discipline: the full ``(n, k)`` matrix is only materialized by
:func:`pairwise_sq_dists`; the reduction kernels (:func:`min_sq_dists`,
:func:`assign_labels`) walk the rows in chunks so peak scratch stays at
``O(chunk_rows * k)`` regardless of ``n``.  Chunk scheduling — block size
and (optional) thread fan-out — is owned by :mod:`repro.linalg.engine`;
every kernel here routes its row blocks through the current engine, so
``set_engine(Engine(workers=4))`` parallelizes all of them at once.
Inside a chunk the reduction kernels walk cache-sized tiles of rows
through one reused ``(tile, k)`` buffer (see :data:`_TILE_BYTES`), so a
tile is reduced while it is still in cache; the chunk's scratch is that
one buffer.  All four reduce a tile the same way (:func:`_tile_argmin`):
each row's ``argmin`` of the unclamped tile, then the minimum read at
that index, so the argmin costs what a separate row ``min`` would.  The
clamp is applied to the rows it can change and nowhere else: a row whose
minimum is negative is clamped and reduced again, so round-off negatives
become ties at zero that break to the lowest index.  A row whose minimum
is ``>= 0`` is left as it is, which is exact because the expansion never
yields ``-0.0`` (the last term added, ``||c||^2``, is never ``-0.0``):
every entry is then already ``>= +0.0``, the clamp would change none,
and the minimum at the first argmin is the row ``min`` bit for bit.

Hot callers (Lloyd, the seeding loops) evaluate distances against the
same ``X`` many times; each kernel therefore accepts a precomputed
``x_norms_sq`` so the O(nd) row-norm pass is paid once per dataset, not
once per call.

Dtype policy: when ``X`` and the centers share a float dtype (float32 or
float64) the GEMM runs in that dtype — this is what makes the optional
float32 working mode ~2x faster — otherwise both operands are upcast to
float64 so mixed-precision inputs cannot silently poison the expansion.
A wider ``x_norms_sq`` (float64 norms with float32 points) widens the
result exactly as the term-by-term expression does: the product is then
formed in its own dtype and widened by the adds, never rounded into a
narrower buffer.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.linalg import sparse as _sparse
from repro.linalg.engine import get_engine
from repro.utils.chunking import chunk_slices
from repro.utils.validation import check_matching_dims

__all__ = [
    "pairwise_sq_dists",
    "sq_dists_to_point",
    "min_sq_dists",
    "update_min_sq_dists",
    "update_min_sq_dists_argmin",
    "assign_labels",
    "block_sq_dists",
    "row_norms_sq",
]

#: Float dtypes the kernels will compute in natively.
_WORKING_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def row_norms_sq(X: np.ndarray) -> np.ndarray:
    """``||x_i||^2`` for each row, via einsum (no intermediate square array).

    Public so hot loops can compute the norms once and pass them back in
    through the ``x_norms_sq`` argument of every kernel below.

    A scipy CSR input folds only its stored entries (see
    :func:`repro.linalg.sparse.sparse_row_norms_sq`); every kernel below
    likewise dispatches to its CSR sibling when handed sparse data, so
    call sites stay representation-agnostic.
    """
    if _sparse.is_sparse(X):
        return _sparse.sparse_row_norms_sq(X)
    return np.einsum("ij,ij->i", X, X)


def _common_dtype(X: np.ndarray, C: np.ndarray) -> np.dtype:
    """The dtype a kernel should compute in for operands ``X`` and ``C``.

    Matching float32/float64 operands keep their precision; anything else
    (mixed precision, integers, float16) is normalized to float64.
    """
    if X.dtype == C.dtype and X.dtype in _WORKING_DTYPES:
        return X.dtype
    return np.dtype(np.float64)


def _as_working(X: np.ndarray, C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    dt = _common_dtype(X, C)
    if X.dtype != dt:
        X = np.ascontiguousarray(X, dtype=dt)
    if C.dtype != dt:
        C = np.ascontiguousarray(C, dtype=dt)
    return X, C


def _check_norms(x_norms_sq: np.ndarray | None, n: int) -> np.ndarray | None:
    if x_norms_sq is not None and x_norms_sq.shape[0] != n:
        raise ValueError(
            f"x_norms_sq has length {x_norms_sq.shape[0]}, expected {n}"
        )
    return x_norms_sq


#: Scratch bytes per row of a (chunk, k) float64 distance block.
def _row_scratch(k: int) -> int:
    return 8 * max(1, k)


#: Float64 scratch of one distance tile: the ``(tile, k)`` buffer a chunk
#: reuses stays in a core's L2 cache between the GEMM that writes it and
#: the passes that fold and reduce it.
_TILE_BYTES = 1 << 20
#: Fewest rows in a tile, however many centers: thinner tiles make the
#: GEMM re-pack ``C`` for too few rows (see README, "Performance").
_TILE_MIN_ROWS = 256


def _tile_cuts(rows: int, k: int) -> list[int]:
    """Row offsets that cut a chunk of ``rows`` rows into tiles.

    Tiles start every ``step`` rows and the last one takes the remainder,
    so no tile is thinner than ``step`` (or than the chunk): BLAS routes
    a GEMM by its shape, and a thin remainder tile could take a kernel
    that rounds differently from the chunk-sized product.  For the same
    reason a one-column product (``k == 1``), which NumPy hands to a
    matrix-vector routine whose rounding depends on the row count, is
    never cut.
    """
    if k == 1:
        return [0, rows]
    step = max(_TILE_MIN_ROWS, _TILE_BYTES // _row_scratch(k))
    return [*range(0, max(1, rows // step) * step, step), rows]


def _fold(
    block: np.ndarray,
    neg2C: np.ndarray,
    x_norms_sq: np.ndarray,
    c_norms_sq: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Unclamped ``||x - c||^2`` of ``block``, in ``out`` or a new array.

    ``neg2C`` is ``-2 * C``, row-major like ``C`` and used transposed, so
    BLAS sees the operand layout of ``block @ C.T``.  The sum has the
    dtype of the term-by-term expansion: the GEMM's, unless the norms are
    wider (float64 norms with float32 points).  The product is then
    formed in the GEMM's dtype and widened exactly -- NumPy casts it into
    a wider ``out`` -- so no float64 norm is rounded into a float32 sum.
    """
    if out is not None:
        gemm = np.matmul(block, neg2C.T, out=out)
    else:
        gemm = out = block @ neg2C.T
        if not x_norms_sq.dtype == c_norms_sq.dtype == gemm.dtype:
            out = np.empty(gemm.shape, np.result_type(gemm, x_norms_sq, c_norms_sq))
    np.add(gemm, x_norms_sq[:, None], out=out)
    np.add(out, c_norms_sq, out=out)
    return out


def _sq_dist_tiles(
    X: np.ndarray,
    sl: slice,
    x_norms_sq: np.ndarray | None,
    neg2C: np.ndarray,
    c_norms_sq: np.ndarray,
) -> Iterator[tuple[slice, np.ndarray]]:
    """Yield ``(rows, d2)`` for each tile of the chunk ``X[sl]``.

    ``rows`` indexes the tile within the chunk; ``d2`` is its unclamped
    squared-distance block, a view of one buffer every tile of the chunk
    reuses -- the caller reduces it before asking for the next tile.
    """
    block = X[sl]
    xn = row_norms_sq(block) if x_norms_sq is None else x_norms_sq[sl]
    cuts = _tile_cuts(block.shape[0], neg2C.shape[0])
    buf = np.empty(
        (cuts[-1] - cuts[-2], neg2C.shape[0]), np.result_type(neg2C, xn, c_norms_sq)
    )
    for lo, hi in zip(cuts, cuts[1:]):
        yield slice(lo, hi), _fold(
            block[lo:hi], neg2C, xn[lo:hi], c_norms_sq, buf[: hi - lo]
        )


def _tile_argmin(d2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's argmin and minimum of the clamped tile ``max(d2, 0)``.

    Bit for bit what clamping the whole tile and calling ``argmin`` and
    ``min`` gives (ties to the lowest index), but only rows whose minimum
    is negative are clamped and reduced again; see the module docstring.
    ``d2`` is not modified.
    """
    idx = d2.argmin(axis=1)
    best = d2.reshape(-1)[np.arange(0, d2.size, d2.shape[1]) + idx]
    neg = np.flatnonzero(best < 0.0)
    if neg.size:
        idx[neg] = np.maximum(d2[neg], 0.0).argmin(axis=1)
        best[neg] = 0.0
    return idx, best


def _tile_top2(d2: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_tile_argmin` plus each row's second smallest clamped entry.

    The runner-up is the same reduction run again with the winner's entry
    set to ``+inf`` (so a value the row holds twice is its own runner-up,
    and a one-column tile's runner-up is ``+inf``); ``d2`` is overwritten.
    """
    idx, best = _tile_argmin(d2)
    d2[np.arange(d2.shape[0]), idx] = np.inf
    return idx, best, _tile_argmin(d2)[1]


def _merge_nearest(cur, near, gap, idx, best, second, offset) -> None:
    """Fold one block's per-row nearest new center into the running profile.

    ``cur``/``near`` (and ``gap`` unless ``None``) are views of the
    caller's arrays, updated in place; ``second`` is the block's runner-up
    (unused without ``gap``).  A tie keeps the earlier center.
    """
    improved = best < cur
    if gap is not None:
        np.copyto(
            gap,
            np.where(
                improved,
                np.minimum(second, cur) - best,
                np.minimum(gap, best - cur),
            ),
        )
    cur[improved] = best[improved]
    near[improved] = idx[improved] + offset


def block_sq_dists(
    block: np.ndarray,
    C: np.ndarray,
    x_norms_sq: np.ndarray,
    c_norms_sq: np.ndarray,
) -> np.ndarray:
    """One clamped GEMM-expansion block: ``||x - c||^2`` for a row block.

    The in-place fold every chunked kernel in this module evaluates tile
    by tile — shared so callers outside the module produce
    *byte-identical* squared distances to the reference kernels for the
    same operands.  ``block`` and ``C`` must
    already be in a common working dtype (see :func:`_as_working`);
    ``x_norms_sq`` / ``c_norms_sq`` are the precomputed row norms of the
    block and of ``C``.  A CSR ``block`` routes through the SpMM sibling
    (same expansion, same clamp; see the tolerance contract in
    :mod:`repro.linalg.sparse`).
    """
    if _sparse.is_sparse(block):
        return _sparse.sparse_block_sq_dists(block, C, x_norms_sq, c_norms_sq)
    d2 = _fold(block, -2.0 * C, x_norms_sq, c_norms_sq)
    np.maximum(d2, 0.0, out=d2)
    return d2


def pairwise_sq_dists(
    X: np.ndarray,
    C: np.ndarray,
    *,
    x_norms_sq: np.ndarray | None = None,
) -> np.ndarray:
    """Full ``(n, k)`` matrix of squared distances between rows of X and C.

    Parameters
    ----------
    X:
        Points, shape ``(n, d)``.
    C:
        Centers, shape ``(k, d)``.
    x_norms_sq:
        Optional precomputed ``||x||^2`` row norms (shape ``(n,)``); pass
        this when calling repeatedly with the same ``X`` (Lloyd's iteration
        does) to skip an O(nd) pass.

    Returns
    -------
    numpy.ndarray
        ``D`` with ``D[i, j] = ||X[i] - C[j]||^2 >= 0``.
    """
    if _sparse.is_sparse(X):
        X = _sparse.to_csr(X)
        C = np.atleast_2d(np.asarray(C))
        _sparse._check_dims(X, C)
        X, C = _sparse._as_working_sparse(X, C)
        if x_norms_sq is None:
            x_norms_sq = _sparse.sparse_row_norms_sq(X)
        return _sparse.sparse_block_sq_dists(X, C, x_norms_sq, row_norms_sq(C))
    check_matching_dims(X, C)
    X, C = _as_working(X, C)
    _check_norms(x_norms_sq, X.shape[0])
    if x_norms_sq is None:
        x_norms_sq = row_norms_sq(X)
    c_norms_sq = row_norms_sq(C)
    # GEMM dominates; the rank-1 corrections broadcast.
    return block_sq_dists(X, C, x_norms_sq, c_norms_sq)


def sq_dists_to_point(
    X: np.ndarray,
    c: np.ndarray,
    *,
    x_norms_sq: np.ndarray | None = None,
) -> np.ndarray:
    """Squared distances from every row of ``X`` to the single point ``c``.

    Cheaper than :func:`pairwise_sq_dists` with a 1-row center matrix
    because it avoids materializing an ``(n, 1)`` result.  ``X`` and ``c``
    are normalized to a common dtype (see the module dtype policy) so a
    float32 ``X`` against a float64 ``c`` — or vice versa — cannot run the
    GEMM expansion in silently mismatched precision.
    """
    if _sparse.is_sparse(X):
        X = _sparse.to_csr(X)
        c = np.asarray(c).reshape(1, -1)
        _sparse._check_dims(X, c)
        X, c = _sparse._as_working_sparse(X, c)
        norms = _check_norms(x_norms_sq, X.shape[0])
        if norms is None:
            norms = _sparse.sparse_row_norms_sq(X)
        return _sparse.sparse_block_sq_dists(X, c, norms, row_norms_sq(c)).ravel()
    X = np.asarray(X)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-dimensional, got shape {X.shape}")
    c = np.asarray(c).reshape(1, -1)
    if X.shape[1] != c.shape[1]:
        raise ValueError(
            f"dimension mismatch: points have d={X.shape[1]}, point has d={c.shape[1]}"
        )
    X, c = _as_working(X, c)
    _check_norms(x_norms_sq, X.shape[0])
    if x_norms_sq is None:
        x_norms_sq = row_norms_sq(X)
    c = c.ravel()
    d2 = x_norms_sq - 2.0 * (X @ c) + c @ c
    np.maximum(d2, 0.0, out=d2)
    return d2


def min_sq_dists(
    X: np.ndarray,
    C: np.ndarray,
    *,
    x_norms_sq: np.ndarray | None = None,
    chunk_bytes: int | None = None,
) -> np.ndarray:
    """``d^2(x, C) = min_j ||x - c_j||^2`` for every point, chunked.

    This is the quantity the paper calls ``d^2(x, C)`` (Section 3.1) and is
    the workhorse of both ``k-means++`` and ``k-means||`` sampling.
    """
    if _sparse.is_sparse(X):
        return _sparse.sparse_min_sq_dists(
            X, C, x_norms_sq=x_norms_sq, chunk_bytes=chunk_bytes
        )
    check_matching_dims(X, C)
    X, C = _as_working(X, C)
    norms = _check_norms(x_norms_sq, X.shape[0])
    n, k = X.shape[0], C.shape[0]
    out = np.empty(n, dtype=np.float64)
    neg2C, c_norms_sq = -2.0 * C, row_norms_sq(C)

    def work(sl: slice) -> None:
        dst = out[sl]
        for rows, d2 in _sq_dist_tiles(X, sl, norms, neg2C, c_norms_sq):
            dst[rows] = _tile_argmin(d2)[1]

    get_engine().run_chunks(n, _row_scratch(k), work, chunk_bytes=chunk_bytes)
    return out


def update_min_sq_dists(
    X: np.ndarray,
    new_centers: np.ndarray,
    current: np.ndarray,
    *,
    x_norms_sq: np.ndarray | None = None,
    chunk_bytes: int | None = None,
) -> np.ndarray:
    """Refresh ``d^2(x, C)`` after ``new_centers`` joined ``C`` — in place.

    The sequential ``k-means++`` inner loop and every ``k-means||`` round
    only *add* centers, so the min can be maintained incrementally:
    ``O(n * |new|)`` per round instead of ``O(n * |C|)`` from scratch. This
    is the optimization that makes the oversampled rounds affordable.

    ``current`` is modified in place and also returned for chaining.
    """
    if _sparse.is_sparse(X):
        return _sparse.sparse_update_min_sq_dists(
            X, new_centers, current,
            x_norms_sq=x_norms_sq, chunk_bytes=chunk_bytes,
        )
    if new_centers.ndim == 1:
        new_centers = new_centers.reshape(1, -1)
    if new_centers.shape[0] == 0:
        return current
    check_matching_dims(X, new_centers)
    if current.shape[0] != X.shape[0]:
        raise ValueError(
            f"current has length {current.shape[0]}, expected {X.shape[0]}"
        )
    X, new_centers = _as_working(X, new_centers)
    norms = _check_norms(x_norms_sq, X.shape[0])
    k_new = new_centers.shape[0]
    neg2C, c_norms_sq = -2.0 * new_centers, row_norms_sq(new_centers)

    def work(sl: slice) -> None:
        cur = current[sl]
        for rows, d2 in _sq_dist_tiles(X, sl, norms, neg2C, c_norms_sq):
            np.minimum(cur[rows], _tile_argmin(d2)[1], out=cur[rows])

    get_engine().run_chunks(X.shape[0], _row_scratch(k_new), work, chunk_bytes=chunk_bytes)
    return current


def update_min_sq_dists_argmin(
    X: np.ndarray,
    new_centers: np.ndarray,
    current: np.ndarray,
    nearest: np.ndarray,
    *,
    offset: int,
    x_norms_sq: np.ndarray | None = None,
    chunk_bytes: int | None = None,
    gap: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Like :func:`update_min_sq_dists` but also maintains the argmin.

    ``nearest[i]`` holds the global index of the center currently closest
    to point ``i``; ``offset`` is the global index of ``new_centers[0]``.
    Maintaining the argmin incrementally is what lets the MapReduce
    weighting job (Step 7 of ``k-means||``) run without any distance work
    — each mapper just bin-counts its cached ``nearest`` column.

    ``gap``, when given, is maintained in place too: per point, how far
    the next nearest of all centers folded so far lies beyond the nearest
    (``0`` on a tie; start it at ``+inf``).  Each center's ``d^2`` agrees
    with a full :func:`assign_labels` pass to round-off only -- the GEMM
    rounds a column by where it sits in the product -- so a caller that
    must reproduce that pass's labels bit for bit re-assigns the points
    whose gap is within round-off (the in-memory ``k-means||`` does).

    Both ``current`` and ``nearest`` are updated in place and returned.
    """
    if _sparse.is_sparse(X):
        return _sparse.sparse_update_min_sq_dists_argmin(
            X, new_centers, current, nearest, offset=offset,
            x_norms_sq=x_norms_sq, chunk_bytes=chunk_bytes, gap=gap,
        )
    if new_centers.ndim == 1:
        new_centers = new_centers.reshape(1, -1)
    if new_centers.shape[0] == 0:
        return current, nearest
    check_matching_dims(X, new_centers)
    if current.shape[0] != X.shape[0] or nearest.shape[0] != X.shape[0]:
        raise ValueError("current/nearest must have one entry per point")
    if gap is not None and gap.shape[0] != X.shape[0]:
        raise ValueError("gap must have one entry per point")
    X, new_centers = _as_working(X, new_centers)
    norms = _check_norms(x_norms_sq, X.shape[0])
    k_new = new_centers.shape[0]
    neg2C, c_norms_sq = -2.0 * new_centers, row_norms_sq(new_centers)

    def work(sl: slice) -> None:
        for rows, d2 in _sq_dist_tiles(X, sl, norms, neg2C, c_norms_sq):
            if gap is None:
                idx, best_new, second = *_tile_argmin(d2), None
            else:
                idx, best_new, second = _tile_top2(d2)
            # Slices are views: the merge writes the caller's arrays.
            _merge_nearest(
                current[sl][rows], nearest[sl][rows],
                None if gap is None else gap[sl][rows],
                idx, best_new, second, offset,
            )

    get_engine().run_chunks(X.shape[0], _row_scratch(k_new), work, chunk_bytes=chunk_bytes)
    return current, nearest


def _assign_labels_at(
    X: np.ndarray, C: np.ndarray, rows: np.ndarray, x_norms_sq: np.ndarray
) -> np.ndarray:
    """``assign_labels(X, C, x_norms_sq=x_norms_sq)[rows]``, bit for bit.

    ``rows`` must be sorted.  Walks the engine chunks and tile cuts that
    :func:`assign_labels` would, but evaluates only the tiles holding
    ``rows``: a GEMM rounds a row by where it sits in the product, so a
    row's labels are reproduced only by the very tile that held it.
    """
    X, C = _as_working(X, C)
    n, k = X.shape[0], C.shape[0]
    neg2C, c_norms_sq = -2.0 * C, row_norms_sq(C)
    labels = np.empty(rows.shape[0], dtype=np.int64)
    for sl in chunk_slices(n, get_engine().resolve_chunk_rows(_row_scratch(k))):
        cuts = sl.start + np.asarray(_tile_cuts(sl.stop - sl.start, k))
        at = np.searchsorted(rows, cuts)
        for lo, hi, a, b in zip(cuts, cuts[1:], at, at[1:]):
            if a < b:
                d2 = _fold(X[lo:hi], neg2C, x_norms_sq[lo:hi], c_norms_sq)
                labels[a:b] = _tile_argmin(d2)[0][rows[a:b] - lo]
    return labels


def assign_labels(
    X: np.ndarray,
    C: np.ndarray,
    *,
    x_norms_sq: np.ndarray | None = None,
    chunk_bytes: int | None = None,
    return_sq_dists: bool = False,
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Nearest-center index for every point (ties -> lowest index).

    Parameters
    ----------
    return_sq_dists:
        When true, also return the squared distance to that nearest center
        (what Lloyd's iteration needs to track the potential for free).
    """
    if _sparse.is_sparse(X):
        return _sparse.sparse_assign_labels(
            X, C, x_norms_sq=x_norms_sq, chunk_bytes=chunk_bytes,
            return_sq_dists=return_sq_dists,
        )
    check_matching_dims(X, C)
    X, C = _as_working(X, C)
    norms = _check_norms(x_norms_sq, X.shape[0])
    n, k = X.shape[0], C.shape[0]
    labels = np.empty(n, dtype=np.int64)
    best = np.empty(n, dtype=np.float64) if return_sq_dists else None
    neg2C, c_norms_sq = -2.0 * C, row_norms_sq(C)

    def work(sl: slice) -> None:
        for rows, d2 in _sq_dist_tiles(X, sl, norms, neg2C, c_norms_sq):
            idx, d2_min = _tile_argmin(d2)
            labels[sl][rows] = idx
            if best is not None:
                best[sl][rows] = d2_min

    get_engine().run_chunks(n, _row_scratch(k), work, chunk_bytes=chunk_bytes)
    if best is not None:
        return labels, best
    return labels
