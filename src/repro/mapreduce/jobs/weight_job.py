"""The weighting job — Step 7 of Algorithm 2 in MapReduce form.

"For x in C, set w_x to be the number of points in X closer to x than any
other point in C." Each mapper emits its split's *partial count vector*;
the reducer sums vectors. The emitted value is a dense ``(m,)`` vector
rather than ``m`` scalar records: the split pre-aggregates its own
counts.

:class:`FoldWeightMapper` folds the last round's candidates into the
cost jobs' cached argmin column and bin-counts it, in the same job, so
the weights need no distance pass of their own.
"""

from __future__ import annotations

import functools
from typing import Any, Hashable, Iterable

import numpy as np

from repro.exceptions import MapReduceError
from repro.mapreduce.job import KeyValue, MapReduceJob, Reducer
from repro.mapreduce.jobs.common import (
    STATE_NEAREST,
    ArraySumReducer,
    ScalarSumReducer,
)
from repro.mapreduce.jobs.cost_job import PHI_KEY, UpdateCostMapper

__all__ = ["FoldWeightMapper", "make_fold_weight_job", "WEIGHTS_KEY"]

#: Output key of the summed weight vector.
WEIGHTS_KEY = "weights"


class FoldWeightMapper(UpdateCostMapper):
    """Step 7 on the last round's fold: fold, then count the nearest column.

    Folds the last round's candidates into the split's cached profile
    exactly as a cost job would, then bin-counts the cached argmin
    column, so the weights need no pass of their own and no distance
    work beyond the fold.  Every earlier candidate must have been folded
    by the cost jobs before.
    """

    def __init__(
        self,
        new_centers: np.ndarray | None = None,
        *,
        offset: int = 0,
        n_candidates: int,
    ):
        super().__init__(new_centers, offset=offset)
        if n_candidates < 1:
            raise MapReduceError(f"n_candidates must be >= 1, got {n_candidates}")
        self.n_candidates = int(n_candidates)

    def map_block(self, block: np.ndarray) -> Iterable[KeyValue]:
        yield from super().map_block(block)
        nearest = self.ctx.state[STATE_NEAREST]
        if nearest.min() < 0:
            raise MapReduceError(
                "fold-and-weigh job found points no candidate was folded "
                "for; the cost jobs must fold every earlier candidate first"
            )
        if nearest.max() >= self.n_candidates:
            raise MapReduceError(
                f"cached nearest indices outside [0, {self.n_candidates})"
            )
        counts = np.bincount(nearest, minlength=self.n_candidates).astype(np.float64)
        self.work += float(block.shape[0])
        yield WEIGHTS_KEY, counts


class _PhiWeightsReducer(Reducer):
    """Dispatch: phi -> scalar sum; weights -> vector sum."""

    def reduce(self, key: Hashable, values: list[Any]) -> Iterable[KeyValue]:
        inner = ScalarSumReducer() if key == PHI_KEY else ArraySumReducer()
        yield from inner.reduce(key, values)
        self.work += inner.work


def make_fold_weight_job(
    new_centers: np.ndarray, *, offset: int, n_candidates: int
) -> MapReduceJob:
    """Build the last round's fold with Step 7's weights riding on it.

    ``new_centers`` (possibly empty, after an early exit) are folded at
    global index ``offset``; the job emits the potential under
    :data:`~repro.mapreduce.jobs.cost_job.PHI_KEY` and the ``(m,)``
    candidate counts under :data:`WEIGHTS_KEY`, ``m = n_candidates``.
    """
    new_centers = np.atleast_2d(np.asarray(new_centers, dtype=np.float64))
    return MapReduceJob(
        name="kmeans||/fold-and-weigh",
        mapper_factory=functools.partial(
            FoldWeightMapper, offset=offset, n_candidates=n_candidates
        ),
        reducer_factory=_PhiWeightsReducer,
        broadcast=new_centers,
    )
