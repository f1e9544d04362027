"""Chunked iteration over large arrays.

The KDDCup1999-scale workloads (millions of points) cannot afford an
``(n, k)`` distance matrix in one allocation when ``k`` is in the hundreds.
Every distance kernel in :mod:`repro.linalg` therefore walks the data in
row blocks produced here. The block size is expressed in *bytes of
scratch*, not rows, so memory stays bounded regardless of ``k`` and ``d``.
"""

from __future__ import annotations

from typing import Iterator

from repro.exceptions import ValidationError

__all__ = ["chunk_slices", "rows_per_chunk"]

#: Default scratch budget per chunk: 32 MiB keeps the working set inside
#: typical L3 + a small slab, while being large enough to amortize Python
#: loop overhead down to noise.
DEFAULT_CHUNK_BYTES = 32 * 1024 * 1024


def rows_per_chunk(row_scratch_bytes: int, chunk_bytes: int = DEFAULT_CHUNK_BYTES) -> int:
    """How many rows fit in ``chunk_bytes`` if each needs ``row_scratch_bytes``.

    Always returns at least 1 so a pathologically wide row still makes
    progress (at the cost of exceeding the budget for that single row).
    """
    if row_scratch_bytes <= 0:
        raise ValidationError(f"row_scratch_bytes must be positive, got {row_scratch_bytes}")
    if chunk_bytes <= 0:
        raise ValidationError(f"chunk_bytes must be positive, got {chunk_bytes}")
    return max(1, chunk_bytes // row_scratch_bytes)


def chunk_slices(n: int, chunk_rows: int) -> Iterator[slice]:
    """Yield ``slice`` objects covering ``range(n)`` in blocks of ``chunk_rows``.

    >>> [  (s.start, s.stop) for s in chunk_slices(5, 2)]
    [(0, 2), (2, 4), (4, 5)]
    """
    if n < 0:
        raise ValidationError(f"n must be >= 0, got {n}")
    if chunk_rows < 1:
        raise ValidationError(f"chunk_rows must be >= 1, got {chunk_rows}")
    for start in range(0, n, chunk_rows):
        yield slice(start, min(start + chunk_rows, n))
