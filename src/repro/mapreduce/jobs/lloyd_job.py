"""One Lloyd round as a MapReduce job.

The classic parallel k-means pattern the paper's introduction mentions as
"readily available": mappers assign points to the broadcast centers and
emit (coordinate-sum, count) partials; the reducer folds the partials and
:func:`collect_new_centers` turns them into new centroids. Mappers also
emit the split's partial potential (key :data:`PHI_KEY`, one float per
split) so the driver can track convergence for free.

Two granularities are supported; they differ in the aggregate records:

* ``"split"`` (default) — the mapper pre-aggregates its split into one
  ``(k, d+1)`` ``[sums | counts]`` block under the key :data:`AGG_KEY`
  (how Spark/combiner-enabled Hadoop behaves): two records per split,
  shuffle volume ``O(splits * k * d)``.  The reducer adds the blocks in
  split order.  A cluster with no point in a split has an all-zero row,
  and adding exact zeros changes no partial sum, so each cluster's total
  is bit for bit the per-cluster fold over the splits that hold it;
* ``"point"`` — the mapper emits one ``(d+1,)`` record *per point* under
  the key ``(AGG_KEY, cluster)`` and correctness relies on the combiner,
  as in textbook Hadoop; shuffle volume without a combiner is
  ``O(n * d)``.  The reducer folds each cluster's records into its
  ``(centroid, count)``.  The combiner ablation (ablation D,
  ``benchmarks/bench_shuffle.py``) uses this mode to measure exactly how
  many bytes the combiner saves.
"""

from __future__ import annotations

import functools
from typing import Any, Hashable, Iterable

import numpy as np

from repro.exceptions import JobSpecError
from repro.linalg import sparse as _sparse
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
    "SumCountReducer",
    "make_lloyd_job",
    "AGG_KEY",
    "PHI_KEY",
]

#: Output key of the split blocks; with ``"point"`` granularity, the
#: prefix of the per-cluster keys ``(AGG_KEY, cluster)``.
AGG_KEY = "agg"
#: Output key of the partial potential.
PHI_KEY = "lloyd-phi"

GRANULARITIES = ("split", "point")


class LloydMapper(BlockMapper):
    """Assignment + partial aggregation for one split.

    The split's ``||x||^2`` rows come from the per-split state (the
    runtime's RDD-caching model; see
    :func:`~repro.mapreduce.jobs.common.split_norms`), where the seeding
    jobs already left them, so a fit pays the O(nd) norm pass once per
    split, not once per job.
    """

    def __init__(self, centers: np.ndarray | None = None, granularity: str = "split"):
        super().__init__()
        if granularity not in GRANULARITIES:
            raise JobSpecError(
                f"granularity must be one of {GRANULARITIES}, got {granularity!r}"
            )
        # ``centers=None`` defers to the job broadcast at setup time —
        # the factory then pickles without the array, so task pickles
        # stay O(1) and the payload travels through the data plane.
        self.centers = (
            None
            if centers is None
            else np.atleast_2d(np.asarray(centers, dtype=np.float64))
        )
        self.granularity = granularity

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
        if self.granularity == "split":
            agg = np.empty((k, d + 1))
            agg[:, :-1] = cluster_sums(block, labels, k)
            agg[:, -1] = cluster_sizes(labels, k)
            yield AGG_KEY, agg
        else:
            # Point granularity ships one dense (d+1,) record per point by
            # construction (the combiner ablation measures exactly that),
            # so CSR rows densify at emit.
            for i, j in enumerate(labels):
                x = _sparse.densify_rows(block[i : i + 1])[0]
                yield (AGG_KEY, int(j)), np.concatenate([x, [1.0]])


class SumCountReducer(Reducer):
    """Fold (sum, count) partials; emit the new centroid of the cluster.

    Associative/commutative over the partial representation, so it doubles
    as the combiner (where it emits folded partials, which this reducer
    folds again — the output is a centroid only at the final reduce; the
    runtime calls combiners and reducers through different paths, so the
    combiner variant is :class:`SumCountCombiner` below).
    """

    def reduce(self, key: Hashable, values: list[Any]) -> Iterable[KeyValue]:
        total = values[0].astype(np.float64, copy=True)
        for v in values[1:]:
            total += v
        self.work += float(total.size * max(0, len(values) - 1))
        count = total[-1]
        centroid = total[:-1] / count if count > 0 else total[:-1]
        yield key, (centroid, float(count))


class SumCountCombiner(Reducer):
    """Pre-fold (sum, count) partials — split blocks or per-cluster
    records — without dividing (stay mergeable).

    ``fold_safe``: one same-key record per fold, work per addition — so
    the spilling shuffle store may keep a running accumulator per key
    instead of buffering the partials (see :mod:`repro.shuffle.store`).
    """

    fold_safe = True

    def reduce(self, key: Hashable, values: list[Any]) -> Iterable[KeyValue]:
        if key == PHI_KEY:
            self.work += max(0, len(values) - 1)
            yield key, float(sum(values))
            return
        total = values[0].astype(np.float64, copy=True)
        for v in values[1:]:
            total += v
        self.work += float(total.size * max(0, len(values) - 1))
        yield key, total


class _LloydReducer(Reducer):
    """Dispatch: phi -> scalar sum; split blocks -> their fold in split
    order; per-point cluster keys -> the cluster's centroid."""

    def __init__(self) -> None:
        super().__init__()
        self._scalar = ScalarSumReducer()
        self._blocks = ArraySumReducer()
        self._sumcount = SumCountReducer()

    def reduce(self, key: Hashable, values: list[Any]) -> Iterable[KeyValue]:
        if key == PHI_KEY:
            inner = self._scalar
        elif key == AGG_KEY:
            inner = self._blocks
        else:
            inner = self._sumcount
        yield from inner.reduce(key, values)
        self.work += inner.work
        inner.work = 0.0


def make_lloyd_job(
    centers: np.ndarray,
    *,
    granularity: str = "split",
    use_combiner: bool = True,
) -> MapReduceJob:
    """Build one Lloyd-round job for the broadcast ``centers``."""
    # functools.partial (not a lambda) keeps the job picklable for the
    # process execution backend; the centers ride only in ``broadcast``
    # (resolved into the mapper at setup), never in the factory, so the
    # data plane can ship them as a shared-memory descriptor.
    centers = np.atleast_2d(np.asarray(centers, dtype=np.float64))
    return MapReduceJob(
        name="lloyd/iteration",
        mapper_factory=functools.partial(LloydMapper, granularity=granularity),
        reducer_factory=_LloydReducer,
        combiner_factory=SumCountCombiner if use_combiner else None,
        broadcast=centers,
    )


def collect_new_centers(
    output: dict[Hashable, list[Any]],
    previous: np.ndarray,
) -> tuple[np.ndarray, float]:
    """Assemble the reducer output into a center array plus the potential.

    Reads either granularity's output: the folded ``(k, d+1)`` block
    (each row's sums divided by its count) or the per-cluster
    ``(centroid, count)`` records.  Clusters that received no points keep
    their previous center (the ``"keep"`` empty policy — the only choice
    expressible without another pass, and what production MapReduce
    implementations do).
    """
    centers = previous.copy()
    for key, values in output.items():
        if key == AGG_KEY:
            total = values[0]
            counts = total[:, -1]
            filled = counts > 0
            centers[filled] = total[filled, :-1] / counts[filled, None]
        elif key != PHI_KEY:
            _, j = key
            centroid, count = values[0]
            if count > 0:
                centers[j] = centroid
    phi = float(output[PHI_KEY][0])
    return centers, phi
