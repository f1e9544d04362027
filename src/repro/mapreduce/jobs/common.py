"""Shared reducers, split-state keys and constants for the k-means jobs.

``FLOPS_PER_DIST`` is the conventional 3 float-ops (subtract, multiply,
accumulate) per coordinate of a squared-distance evaluation; every
mapper's ``work`` accounting uses it so the simulated clock charges all
algorithms with one ruler.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterable

import numpy as np

from repro.linalg import sparse as _sparse
from repro.linalg.distances import row_norms_sq
from repro.mapreduce.job import KeyValue, Reducer, SplitContext

__all__ = [
    "FLOPS_PER_DIST",
    "ScalarSumReducer",
    "ArraySumReducer",
    "ConcatReducer",
    "split_norms",
]

#: Float operations charged per (point, center) coordinate pair.
FLOPS_PER_DIST = 3.0

#: Key under which the cached d^2 profile lives in each split's state.
STATE_D2 = "d2"
#: Key under which the cached nearest-candidate index lives.
STATE_NEAREST = "nearest"
#: Key under which the split's cached ``||x||^2`` rows live.
STATE_NORMS = "lloyd-x-norms-sq"


def split_norms(ctx: SplitContext | None, block) -> np.ndarray | None:
    """The split's ``||x||^2`` rows, computed by its first job and kept.

    The cost jobs and the Lloyd jobs both pass these to their kernels, so
    a fit pays the O(nd) norm pass once per split.  Every MR job's centers
    are float64, so the dense kernels work on float64 rows; the norms are
    taken of those rows, which gives a kernel the bits it would compute
    itself.  ``None`` without a context (a mapper run by hand).
    """
    if ctx is None:
        return None
    norms = ctx.state.get(STATE_NORMS)
    if norms is None or norms.shape[0] != block.shape[0]:
        if not _sparse.is_sparse(block) and block.dtype != np.float64:
            block = np.asarray(block, dtype=np.float64)
        norms = row_norms_sq(block)
        ctx.state[STATE_NORMS] = norms
    return norms


class ScalarSumReducer(Reducer):
    """Sums numeric values — the potential aggregation of Section 3.5.

    ("each mapper ... can compute phi_X'(C) and the reducer can simply add
    these values from all mappers to obtain phi_X(C)"). Associative and
    commutative, hence safe as its own combiner — and as a shuffle
    pre-aggregator (``fold_safe``): work is charged per addition, so any
    regrouping of the same fold costs the same simulated time.
    """

    fold_safe = True

    def reduce(self, key: Hashable, values: list[Any]) -> Iterable[KeyValue]:
        self.work += max(0, len(values) - 1)
        yield key, float(sum(values))


class ArraySumReducer(Reducer):
    """Element-wise sums numpy arrays (weight vectors, sum/count blocks)."""

    fold_safe = True

    def reduce(self, key: Hashable, values: list[Any]) -> Iterable[KeyValue]:
        total = values[0].astype(np.float64, copy=True)
        for v in values[1:]:
            total += v
        self.work += float(total.size * max(0, len(values) - 1))
        yield key, total


class ConcatReducer(Reducer):
    """Stacks emitted row blocks into one array (candidate collection)."""

    def reduce(self, key: Hashable, values: list[Any]) -> Iterable[KeyValue]:
        blocks = [np.atleast_2d(v) for v in values if v is not None and len(v)]
        if not blocks:
            yield key, None
            return
        out = np.vstack(blocks)
        self.work += float(out.size)
        yield key, out
