"""One Lloyd round as a MapReduce job.

The classic parallel k-means pattern the paper's introduction mentions as
"readily available": mappers assign points to the broadcast centers and
emit (coordinate-sum, count) partials; the reducer folds the partials and
:func:`collect_new_centers` turns them into new centroids. Mappers also
emit the split's partial potential (key :data:`PHI_KEY`, one float per
split) so the driver can track convergence for free.

Each mapper pre-aggregates its split into one ``(k, d+1)``
``[sums | counts]`` block under the key :data:`AGG_KEY` (how Spark
behaves): two records per split, shuffle volume ``O(splits * k * d)``.
The reducer adds the blocks in split order.  A cluster with no point in
a split has an all-zero row, and adding exact zeros changes no partial
sum, so each cluster's total is bit for bit the per-cluster fold over
the splits that hold it.

:class:`LloydScoreMapper` runs the same assignment and emits only the
partial potential: the job that scores a fit's returned centers ships
no sums.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterable

import numpy as np

from repro.exceptions import JobSpecError
from repro.linalg.centroids import cluster_sizes, cluster_sums
from repro.linalg.distances import assign_labels
from repro.mapreduce.job import BlockMapper, KeyValue, MapReduceJob, Reducer
from repro.mapreduce.jobs.common import (
    FLOPS_PER_DIST,
    ArraySumReducer,
    ScalarSumReducer,
    split_norms,
)

__all__ = [
    "LloydMapper",
    "LloydScoreMapper",
    "make_lloyd_job",
    "AGG_KEY",
    "PHI_KEY",
]

#: Output key of the split blocks.
AGG_KEY = "agg"
#: Output key of the partial potential.
PHI_KEY = "lloyd-phi"


class LloydMapper(BlockMapper):
    """Assignment + partial aggregation for one split.

    The split's ``||x||^2`` rows come from the per-split state (the
    runtime's RDD-caching model; see
    :func:`~repro.mapreduce.jobs.common.split_norms`), where the seeding
    jobs already left them, so a fit pays the O(nd) norm pass once per
    split, not once per job.
    """

    def __init__(self, centers: np.ndarray | None = None):
        super().__init__()
        # ``centers=None`` defers to the job broadcast at setup time —
        # the factory then pickles without the array, so task pickles
        # stay O(1) and the payload travels through the data plane.
        self.centers = (
            None
            if centers is None
            else np.atleast_2d(np.asarray(centers, dtype=np.float64))
        )

    def setup(self, ctx) -> None:
        super().setup(ctx)
        if self.centers is None:
            if ctx.broadcast is None:
                raise JobSpecError(
                    "LloydMapper needs centers: pass them to the constructor "
                    "or run it through a job whose broadcast carries them"
                )
            self.centers = np.atleast_2d(np.asarray(ctx.broadcast, dtype=np.float64))

    def map_block(self, block: np.ndarray) -> Iterable[KeyValue]:
        k, d = self.centers.shape
        labels, d2 = assign_labels(
            block, self.centers, x_norms_sq=split_norms(self.ctx, block),
            return_sq_dists=True,
        )
        self.work += block.shape[0] * k * d * FLOPS_PER_DIST
        yield PHI_KEY, float(d2.sum())
        agg = np.empty((k, d + 1))
        agg[:, :-1] = cluster_sums(block, labels, k)
        agg[:, -1] = cluster_sizes(labels, k)
        yield AGG_KEY, agg


class LloydScoreMapper(LloydMapper):
    """The split's partial potential against the broadcast centers, alone.

    The same assignment as :class:`LloydMapper`, with the same work
    charged: only the first record of its ``map_block`` is taken, so the
    sums block is never built.
    """

    def map_block(self, block: np.ndarray) -> Iterable[KeyValue]:
        yield next(iter(super().map_block(block)))


class _LloydReducer(Reducer):
    """Dispatch: phi -> scalar sum; split blocks -> their fold in split
    order."""

    def reduce(self, key: Hashable, values: list[Any]) -> Iterable[KeyValue]:
        inner = ScalarSumReducer() if key == PHI_KEY else ArraySumReducer()
        yield from inner.reduce(key, values)
        self.work += inner.work


def make_lloyd_job(centers: np.ndarray) -> MapReduceJob:
    """Build one Lloyd-round job for the broadcast ``centers``."""
    # The centers ride only in ``broadcast`` (resolved into the mapper at
    # setup), never in the factory, so the data plane can ship them as a
    # shared-memory descriptor.
    centers = np.atleast_2d(np.asarray(centers, dtype=np.float64))
    return MapReduceJob(
        name="lloyd/iteration",
        mapper_factory=LloydMapper,
        reducer_factory=_LloydReducer,
        broadcast=centers,
    )


def collect_new_centers(
    output: dict[Hashable, list[Any]],
    previous: np.ndarray,
) -> tuple[np.ndarray, float]:
    """Assemble the reducer output into a center array plus the potential.

    Each row of the folded ``(k, d+1)`` block is divided by its count.
    Clusters that received no points keep their previous center (the
    ``"keep"`` empty policy — the only choice expressible without another
    pass, and what production MapReduce implementations do).
    """
    centers = previous.copy()
    total = output[AGG_KEY][0]
    counts = total[:, -1]
    filled = counts > 0
    centers[filled] = total[filled, :-1] / counts[filled, None]
    phi = float(output[PHI_KEY][0])
    return centers, phi
