"""The weighting job — Step 7 of Algorithm 2 in MapReduce form.

"For x in C, set w_x to be the number of points in X closer to x than any
other point in C." Each mapper emits its split's *partial count vector*;
the reducer sums vectors. The emitted value is a dense ``(m,)`` vector
rather than ``m`` scalar records: the split pre-aggregates its own
counts.

Two forms: :class:`WeightMapper` assigns the split's points to the
broadcast candidates (a full distance pass), and :class:`FoldWeightMapper`
— what :func:`~repro.mapreduce.kmeans_mr.mr_scalable_kmeans` runs — folds
the last round's candidates into the cost jobs' cached argmin column and
bin-counts it, in the same job.
"""

from __future__ import annotations

import functools
from typing import Any, Hashable, Iterable

import numpy as np

from repro.exceptions import MapReduceError
from repro.linalg.centroids import cluster_sizes
from repro.linalg.distances import assign_labels
from repro.mapreduce.job import BlockMapper, KeyValue, MapReduceJob, Reducer
from repro.mapreduce.jobs.common import (
    FLOPS_PER_DIST,
    STATE_NEAREST,
    ArraySumReducer,
    ScalarSumReducer,
)
from repro.mapreduce.jobs.cost_job import PHI_KEY, UpdateCostMapper

__all__ = [
    "WeightMapper",
    "FoldWeightMapper",
    "make_weight_job",
    "make_fold_weight_job",
    "WEIGHTS_KEY",
]

#: Output key of the summed weight vector.
WEIGHTS_KEY = "weights"


class WeightMapper(BlockMapper):
    """Nearest-candidate count vector for one split."""

    def __init__(self, candidates: np.ndarray | None = None):
        super().__init__()
        # ``None`` defers to the job broadcast at setup (data plane).
        self.candidates = (
            None
            if candidates is None
            else np.atleast_2d(np.asarray(candidates, dtype=np.float64))
        )

    def setup(self, ctx) -> None:
        super().setup(ctx)
        if self.candidates is None:
            if ctx.broadcast is None:
                raise MapReduceError(
                    "WeightMapper needs candidates: pass them to the "
                    "constructor or run it through a job whose broadcast "
                    "carries them"
                )
            self.candidates = np.atleast_2d(
                np.asarray(ctx.broadcast, dtype=np.float64)
            )

    def map_block(self, block: np.ndarray) -> Iterable[KeyValue]:
        labels = assign_labels(block, self.candidates)
        counts = cluster_sizes(labels, self.candidates.shape[0])
        self.work += (
            block.shape[0] * self.candidates.shape[0] * block.shape[1] * FLOPS_PER_DIST
        )
        yield WEIGHTS_KEY, counts


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


def make_weight_job(candidates: np.ndarray) -> MapReduceJob:
    """Build the Step-7 weighting job for the full candidate set."""
    # functools.partial (not a lambda) keeps the job picklable for the
    # process execution backend; the candidate block rides only in
    # ``broadcast`` so the data plane can ship a descriptor per task.
    candidates = np.atleast_2d(np.asarray(candidates, dtype=np.float64))
    return MapReduceJob(
        name="kmeans||/weights",
        mapper_factory=WeightMapper,
        reducer_factory=ArraySumReducer,
        broadcast=candidates,
    )


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
